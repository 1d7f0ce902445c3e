package experiments

import (
	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/lsq"
	"dmdc/internal/stats"
	"dmdc/internal/trace"
)

// Verification-scheme comparison across the design space the paper's
// Section 7 surveys: the conventional CAM baseline, DMDC, the Garg et al.
// age table, and Cain & Lipasti value-based re-execution with and without
// Roth's SVW filter. The axes are the ones the paper argues on: replays,
// data-cache bandwidth, LQ-functionality energy, and net energy.

const (
	keyValueBased = "value-based"
	keyValueSVW   = "value-svw"
)

// ValueBasedFactory builds plain commit-time re-execution.
func ValueBasedFactory(m config.Machine, em *energy.Model) (lsq.Policy, error) {
	return lsq.NewValueBased(lsq.ValueBasedConfig{LoadCap: m.ROBSize}, em)
}

// ValueSVWFactory builds re-execution behind an SVW filter sized like the
// DMDC checking table.
func ValueSVWFactory(m config.Machine, em *energy.Model) (lsq.Policy, error) {
	return lsq.NewValueBased(lsq.ValueBasedConfig{SVW: true, SVWSize: m.CheckTable, LoadCap: m.ROBSize}, em)
}

// VerificationRow is one scheme's aggregate for one class.
type VerificationRow struct {
	Class  trace.Class
	Scheme string

	ReplaysPerM  float64
	ExtraL1DPerK float64 // additional data-cache accesses per 1K insts vs baseline
	LQSavedPct   stats.Summary
	NetSavedPct  stats.Summary
	SlowdownPct  stats.Summary
}

// VerificationResult compares the verification schemes.
type VerificationResult struct {
	Rows []VerificationRow
}

// VerificationComparison runs the schemes on config2.
func (s *Suite) VerificationComparison() *VerificationResult {
	keys := []string{keyBase("config2"), keyGlobal("config2"), keyAgeTable, keyValueBased, keyValueSVW}
	res := s.get(keys...)
	base := res[keyBase("config2")]
	out := &VerificationResult{}
	for _, sch := range []struct {
		name string
		key  string
	}{
		{"dmdc", keyGlobal("config2")},
		{"age-table", keyAgeTable},
		{"value-based", keyValueBased},
		{"value+svw", keyValueSVW},
	} {
		rs := res[sch.key]
		for _, class := range []trace.Class{trace.INT, trace.FP} {
			row := VerificationRow{Class: class, Scheme: sch.name}
			var repl, extra stats.Summary
			for i := range rs {
				if rs[i] == nil || base[i] == nil || rs[i].Class != class {
					continue
				}
				repl.Observe(perMillion(rs[i], rs[i].Stats.Get("core_replays_total")))
				// Extra data-cache traffic: policy re-executions count as
				// L1D events in the energy model.
				d := float64(rs[i].Energy.Counts[energy.CompL1D]) -
					float64(base[i].Energy.Counts[energy.CompL1D])
				extra.Observe(d / float64(rs[i].Insts) * 1000)
				p := pair{base: base[i], test: rs[i]}
				row.LQSavedPct.Observe(100 * p.lqSavings())
				row.NetSavedPct.Observe(100 * p.totalSavings())
				row.SlowdownPct.Observe(100 * p.slowdown())
			}
			row.ReplaysPerM = repl.Mean()
			row.ExtraL1DPerK = extra.Mean()
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// String renders the comparison.
func (v *VerificationResult) String() string {
	t := stats.NewTable("Verification schemes (Section 7 design space, config2)\n"+
		"(value-based 'LQ saved' is nominal — its real cost is the extra L1D column; compare net saved %)",
		"class", "scheme", "replays/M", "extra L1D/K inst", "LQ saved %", "net saved %", "slowdown %")
	for _, r := range v.Rows {
		t.AddRow(r.Class.String(), r.Scheme, r.ReplaysPerM, r.ExtraL1DPerK,
			r.LQSavedPct.Mean(), r.NetSavedPct.Mean(), r.SlowdownPct.Mean())
	}
	return t.String()
}
