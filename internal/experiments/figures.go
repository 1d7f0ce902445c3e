package experiments

import (
	"fmt"
	"strings"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/stats"
	"dmdc/internal/trace"
)

// FilterPoint is one point of a filtering-rate curve: the structure size
// and the percentage of LQ searches filtered (mean over the group, with
// the per-application range the paper draws as "I-beams").
type FilterPoint struct {
	Size int
	Pct  stats.Summary // values already ×100
}

// Figure2Result reproduces Figure 2: the percentage of LQ searches
// filtered by YLA register files of different sizes, quad-word vs
// cache-line interleaved, for INT and FP applications.
type Figure2Result struct {
	QuadWord map[trace.Class][]FilterPoint
	Line     map[trace.Class][]FilterPoint
}

// Figure2 runs (or reuses) the instrumented baseline and collects the
// YLA sweep.
func (s *Suite) Figure2() *Figure2Result {
	rs := s.get(keyMonitored)[keyMonitored]
	ints, fps := byClass(rs)
	out := &Figure2Result{
		QuadWord: make(map[trace.Class][]FilterPoint),
		Line:     make(map[trace.Class][]FilterPoint),
	}
	for _, group := range []struct {
		class trace.Class
		rs    []*core.Result
	}{{trace.INT, ints}, {trace.FP, fps}} {
		for _, n := range YLACounts {
			qw := summarizeMetric(group.rs, statPct(fmt.Sprintf("yla%d_qw_filter_rate", n)))
			ln := summarizeMetric(group.rs, statPct(fmt.Sprintf("yla%d_line_filter_rate", n)))
			out.QuadWord[group.class] = append(out.QuadWord[group.class], FilterPoint{Size: n, Pct: qw})
			out.Line[group.class] = append(out.Line[group.class], FilterPoint{Size: n, Pct: ln})
		}
	}
	return out
}

// String renders the figure as two tables (one per class).
func (f *Figure2Result) String() string {
	var b strings.Builder
	for _, class := range []trace.Class{trace.INT, trace.FP} {
		t := stats.NewTable(fmt.Sprintf("Figure 2 (%s): %% LQ searches filtered vs #YLA registers", class),
			"#YLA", "quad-word mean", "qw min", "qw max", "cache-line mean", "line min", "line max")
		qws := f.QuadWord[class]
		lns := f.Line[class]
		for i := range qws {
			t.AddRow(qws[i].Size, qws[i].Pct.Mean(), qws[i].Pct.Min, qws[i].Pct.Max,
				lns[i].Pct.Mean(), lns[i].Pct.Min, lns[i].Pct.Max)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure3Result reproduces Figure 3: YLA filtering (1 and 8 registers)
// compared against Bloom filters of growing size.
type Figure3Result struct {
	YLA1, YLA8 map[trace.Class]stats.Summary
	Bloom      map[trace.Class][]FilterPoint
}

// Figure3 collects the Bloom-vs-YLA comparison from the same run.
func (s *Suite) Figure3() *Figure3Result {
	rs := s.get(keyMonitored)[keyMonitored]
	ints, fps := byClass(rs)
	out := &Figure3Result{
		YLA1:  make(map[trace.Class]stats.Summary),
		YLA8:  make(map[trace.Class]stats.Summary),
		Bloom: make(map[trace.Class][]FilterPoint),
	}
	for _, group := range []struct {
		class trace.Class
		rs    []*core.Result
	}{{trace.INT, ints}, {trace.FP, fps}} {
		out.YLA1[group.class] = summarizeMetric(group.rs, statPct("yla1_qw_filter_rate"))
		out.YLA8[group.class] = summarizeMetric(group.rs, statPct("yla8_qw_filter_rate"))
		for _, sz := range BloomSizes {
			p := summarizeMetric(group.rs, statPct(fmt.Sprintf("bf%d_filter_rate", sz)))
			out.Bloom[group.class] = append(out.Bloom[group.class], FilterPoint{Size: sz, Pct: p})
		}
	}
	return out
}

// String renders the comparison tables.
func (f *Figure3Result) String() string {
	var b strings.Builder
	for _, class := range []trace.Class{trace.INT, trace.FP} {
		t := stats.NewTable(fmt.Sprintf("Figure 3 (%s): filtering capability, %% searches avoided", class),
			"scheme", "mean", "min", "max")
		t.AddRow("1 YLA", f.YLA1[class].Mean(), f.YLA1[class].Min, f.YLA1[class].Max)
		t.AddRow("8 YLA", f.YLA8[class].Mean(), f.YLA8[class].Min, f.YLA8[class].Max)
		for _, p := range f.Bloom[class] {
			t.AddRow(fmt.Sprintf("BF=%d", p.Size), p.Pct.Mean(), p.Pct.Min, p.Pct.Max)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure4Row is one configuration × class cell of Figure 4.
type Figure4Row struct {
	Config       string
	Class        trace.Class
	LQSavingsPct stats.Summary
	SlowdownPct  stats.Summary
	TotalSavePct stats.Summary
}

// Figure4Result reproduces Figure 4: DMDC's LQ energy savings (a),
// performance degradation (b), and total processor-wide savings (c) across
// the three machine configurations.
type Figure4Result struct {
	Rows []Figure4Row
}

// Figure4 runs baseline and global DMDC on all three configurations.
func (s *Suite) Figure4() *Figure4Result {
	var keys []string
	for _, m := range config.All() {
		keys = append(keys, keyBase(m.Name), keyGlobal(m.Name))
	}
	res := s.get(keys...)
	out := &Figure4Result{}
	for _, m := range config.All() {
		ps := zip(res[keyBase(m.Name)], res[keyGlobal(m.Name)])
		for _, class := range []trace.Class{trace.INT, trace.FP} {
			var group []pair
			for _, p := range ps {
				if p.base.Class == class {
					group = append(group, p)
				}
			}
			out.Rows = append(out.Rows, Figure4Row{
				Config:       m.Name,
				Class:        class,
				LQSavingsPct: summarizePairs(group, func(p pair) float64 { return 100 * p.lqSavings() }),
				SlowdownPct:  summarizePairs(group, func(p pair) float64 { return 100 * p.slowdown() }),
				TotalSavePct: summarizePairs(group, func(p pair) float64 { return 100 * p.totalSavings() }),
			})
		}
	}
	return out
}

// String renders the three panels as one table.
func (f *Figure4Result) String() string {
	t := stats.NewTable("Figure 4: DMDC vs conventional LQ (per config, per class)",
		"config", "class", "LQ energy saved %", "slowdown % (mean)", "slowdown min", "slowdown max", "total saved %")
	for _, r := range f.Rows {
		t.AddRow(r.Config, r.Class.String(), r.LQSavingsPct.Mean(),
			r.SlowdownPct.Mean(), r.SlowdownPct.Min, r.SlowdownPct.Max, r.TotalSavePct.Mean())
	}
	return t.String()
}

// Figure5Row is one configuration × class × variant slowdown cell.
type Figure5Row struct {
	Config string
	Class  trace.Class
	Global stats.Summary // percent
	Local  stats.Summary // percent
}

// Figure5Result reproduces Figure 5: slowdown of global vs local DMDC.
type Figure5Result struct {
	Rows []Figure5Row
}

// Figure5 compares global and local DMDC slowdowns per configuration.
func (s *Suite) Figure5() *Figure5Result {
	var keys []string
	for _, m := range config.All() {
		keys = append(keys, keyBase(m.Name), keyGlobal(m.Name), keyLocal(m.Name))
	}
	res := s.get(keys...)
	out := &Figure5Result{}
	for _, m := range config.All() {
		gp := zip(res[keyBase(m.Name)], res[keyGlobal(m.Name)])
		lp := zip(res[keyBase(m.Name)], res[keyLocal(m.Name)])
		for _, class := range []trace.Class{trace.INT, trace.FP} {
			var gg, lg []pair
			for _, p := range gp {
				if p.base.Class == class {
					gg = append(gg, p)
				}
			}
			for _, p := range lp {
				if p.base.Class == class {
					lg = append(lg, p)
				}
			}
			out.Rows = append(out.Rows, Figure5Row{
				Config: m.Name,
				Class:  class,
				Global: summarizePairs(gg, func(p pair) float64 { return 100 * p.slowdown() }),
				Local:  summarizePairs(lg, func(p pair) float64 { return 100 * p.slowdown() }),
			})
		}
	}
	return out
}

// String renders the comparison.
func (f *Figure5Result) String() string {
	t := stats.NewTable("Figure 5: slowdown %, global vs local DMDC",
		"config", "class", "global mean", "global max", "local mean", "local max")
	for _, r := range f.Rows {
		t.AddRow(r.Config, r.Class.String(), r.Global.Mean(), r.Global.Max, r.Local.Mean(), r.Local.Max)
	}
	return t.String()
}
