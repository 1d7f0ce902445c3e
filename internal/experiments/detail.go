package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"dmdc/internal/stats"
)

// DetailRow is one benchmark's baseline-vs-DMDC summary.
type DetailRow struct {
	Benchmark   string
	Class       string
	BaseIPC     float64
	DMDCIPC     float64
	SlowdownPct float64
	FalsePerM   float64
	TruePerM    float64
	LQSavedPct  float64
	NetSavedPct float64
}

// DetailResult is the per-benchmark appendix (config2): the paper reports
// group averages; this table exposes the distribution underneath them.
type DetailResult struct {
	Rows []DetailRow
}

// Detail builds the per-benchmark comparison on config2.
func (s *Suite) Detail() *DetailResult {
	res := s.get(keyBase("config2"), keyGlobal("config2"))
	base := res[keyBase("config2")]
	dm := res[keyGlobal("config2")]
	out := &DetailResult{}
	for i := range base {
		if base[i] == nil || dm[i] == nil {
			continue
		}
		p := pair{base: base[i], test: dm[i]}
		out.Rows = append(out.Rows, DetailRow{
			Benchmark:   base[i].Benchmark,
			Class:       base[i].Class.String(),
			BaseIPC:     base[i].IPC(),
			DMDCIPC:     dm[i].IPC(),
			SlowdownPct: 100 * p.slowdown(),
			FalsePerM:   falseReplaysPerM(dm[i]),
			TruePerM:    perMillion(dm[i], dm[i].Stats.Get("core_replay_true_violation")),
			LQSavedPct:  100 * p.lqSavings(),
			NetSavedPct: 100 * p.totalSavings(),
		})
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		if out.Rows[i].Class != out.Rows[j].Class {
			return out.Rows[i].Class < out.Rows[j].Class
		}
		return out.Rows[i].Benchmark < out.Rows[j].Benchmark
	})
	return out
}

// String renders the appendix table.
func (d *DetailResult) String() string {
	t := stats.NewTable("Appendix: per-benchmark detail (config2, baseline vs global DMDC)",
		"benchmark", "class", "base IPC", "dmdc IPC", "slowdown %", "false/M", "true/M", "LQ saved %", "net saved %")
	for _, r := range d.Rows {
		t.AddRow(r.Benchmark, r.Class, r.BaseIPC, r.DMDCIPC, r.SlowdownPct,
			r.FalsePerM, r.TruePerM, r.LQSavedPct, r.NetSavedPct)
	}
	return t.String()
}

// WriteCSV dumps every statistic of a run key's results as CSV: one row
// per benchmark, a fixed set of leading columns, then one column per
// counter (the union across benchmarks, sorted). A counter named like a
// fixed column (the "cycles" stat) is left out: the fixed column already
// carries it. For plotting and external analysis.
func (s *Suite) WriteCSV(w io.Writer, key string) error {
	rs := s.get(key)[key]
	fixed := []string{"benchmark", "class", "config", "policy", "cycles", "insts", "ipc", "energy_total", "energy_lq"}
	cols := map[string]bool{}
	for _, r := range rs {
		if r == nil {
			continue
		}
		for _, name := range r.Stats.Names() {
			cols[name] = true
		}
	}
	for _, name := range fixed {
		delete(cols, name)
	}
	names := make([]string, 0, len(cols))
	for name := range cols {
		names = append(names, name)
	}
	sort.Strings(names)

	cw := csv.NewWriter(w)
	header := append(fixed, names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rs {
		if r == nil {
			continue
		}
		row := []string{
			r.Benchmark, r.Class.String(), r.Config, r.Policy,
			strconv.FormatUint(r.Cycles, 10),
			strconv.FormatUint(r.Insts, 10),
			fmt.Sprintf("%.4f", r.IPC()),
			fmt.Sprintf("%.1f", r.Energy.Total()),
			fmt.Sprintf("%.1f", r.Energy.LQEnergy()),
		}
		for _, name := range names {
			row = append(row, strconv.FormatFloat(r.Stats.Get(name), 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
