package experiments

import (
	"fmt"
	"strings"

	"dmdc/internal/stats"
	"dmdc/internal/trace"
)

// YLAEnergyResult reproduces the Section 6.1 text numbers: using YLA
// filtering alone (conventional CAM LQ retained) saves roughly a third of
// the LQ energy and 1–2% processor-wide, with no performance impact.
type YLAEnergyResult struct {
	Rows []YLAEnergyRow
}

// YLAEnergyRow is one class's aggregate.
type YLAEnergyRow struct {
	Class        trace.Class
	LQSavingsPct stats.Summary
	TotalPct     stats.Summary
	SlowdownPct  stats.Summary
	FilterPct    stats.Summary
}

// YLAEnergy compares the YLA-filtered CAM against the plain baseline.
func (s *Suite) YLAEnergy() *YLAEnergyResult {
	res := s.get(keyBase("config2"), keyYLA)
	out := &YLAEnergyResult{}
	for _, class := range classes {
		row := YLAEnergyRow{Class: class}
		for _, p := range pairsOf(res[keyBase("config2")], res[keyYLA], class) {
			row.LQSavingsPct.Observe(100 * p.lqSavings())
			row.TotalPct.Observe(100 * p.totalSavings())
			row.SlowdownPct.Observe(100 * p.slowdown())
			searched := p.test.Stats.Get("lq_searches")
			filtered := p.test.Stats.Get("lq_searches_filtered")
			if searched+filtered > 0 {
				row.FilterPct.Observe(100 * filtered / (searched + filtered))
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the YLA-only savings.
func (y *YLAEnergyResult) String() string {
	t := stats.NewTable("Section 6.1: YLA filtering alone (8 registers, config2)",
		"class", "LQ searches filtered %", "LQ energy saved %", "processor saved %", "slowdown %")
	for _, r := range y.Rows {
		t.AddRow(r.Class.String(), r.FilterPct.Mean(), r.LQSavingsPct.Mean(),
			r.TotalPct.Mean(), r.SlowdownPct.Mean())
	}
	return t.String()
}

// StoreFilterResult reproduces the Section 3 aside: the fraction of loads
// older than every in-flight store, which could skip the SQ search.
type StoreFilterResult struct {
	INT, FP, All stats.Summary
}

// StoreFilterPotential measures SQ-side filtering headroom.
func (s *Suite) StoreFilterPotential() *StoreFilterResult {
	rs := s.get(keyMonitored)[keyMonitored]
	rate := statPct("sq_filter_rate")
	return &StoreFilterResult{
		INT: summarizeMetric(ofClass(rs, trace.INT), rate),
		FP:  summarizeMetric(ofClass(rs, trace.FP), rate),
		All: summarizeMetric(rs, rate),
	}
}

// String renders the result.
func (r *StoreFilterResult) String() string {
	return fmt.Sprintf(
		"Section 3: loads older than all in-flight stores (SQ-filter headroom)\n"+
			"  INT %.1f%%  FP %.1f%%  all %.1f%% (paper: ~20%%)\n",
		r.INT.Mean(), r.FP.Mean(), r.All.Mean())
}

// SafeLoadAblationResult reproduces the Section 6.2.2 safe-load analysis:
// disabling the safe-load bypass should roughly double the false replays
// (a 52% average reduction for INT with it on, up to 97%; ~20% for FP).
type SafeLoadAblationResult struct {
	Rows []SafeLoadRow
}

// SafeLoadRow is one class's aggregate.
type SafeLoadRow struct {
	Class        trace.Class
	WithPerM     float64
	WithoutPerM  float64
	ReductionPct stats.Summary // per-benchmark reduction, mean and max
	SafeLoadPct  stats.Summary // % of all loads flagged safe at issue
}

// SafeLoadAblation compares DMDC with and without the bypass.
func (s *Suite) SafeLoadAblation() *SafeLoadAblationResult {
	res := s.get(keyGlobal("config2"), keyNoSafe())
	with := res[keyGlobal("config2")]
	without := res[keyNoSafe()]
	out := &SafeLoadAblationResult{}
	for _, class := range classes {
		row := SafeLoadRow{Class: class}
		var w, wo stats.Summary
		for _, p := range pairsOf(with, without, class) {
			a, b := p.base, p.test
			fa, fb := falseReplaysPerM(a), falseReplaysPerM(b)
			w.Observe(fa)
			wo.Observe(fb)
			if fb > 0 {
				row.ReductionPct.Observe(100 * (fb - fa) / fb)
			}
			bypass := a.Stats.Get("safe_load_bypass")
			checked := a.Stats.Get("loads_checked")
			if bypass+checked > 0 {
				row.SafeLoadPct.Observe(100 * bypass / (bypass + checked))
			}
		}
		row.WithPerM = w.Mean()
		row.WithoutPerM = wo.Mean()
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the ablation.
func (a *SafeLoadAblationResult) String() string {
	t := stats.NewTable("Section 6.2.2: safe-load bypass ablation (config2)",
		"class", "false replays/M (with)", "without", "reduction % (mean)", "reduction % (max)", "% window loads safe")
	for _, r := range a.Rows {
		t.AddRow(r.Class.String(), r.WithPerM, r.WithoutPerM,
			r.ReductionPct.Mean(), r.ReductionPct.Max, r.SafeLoadPct.Mean())
	}
	return t.String()
}

// CheckQueueRow is one checking-queue size's outcome.
type CheckQueueRow struct {
	QueueSize    int
	FalsePerM    map[trace.Class]float64
	OverflowPerM map[trace.Class]float64
}

// CheckQueueResult reproduces the Section 6.2.3 comparison: an associative
// checking queue avoids hashing-conflict replays but overflows; the paper
// estimates a 16-entry queue ≈ the 2K-entry table in replay terms.
type CheckQueueResult struct {
	TablePerM map[trace.Class]float64 // the 2K hash table reference
	Rows      []CheckQueueRow
}

// CheckQueueEquivalence sweeps queue sizes against the hash table.
func (s *Suite) CheckQueueEquivalence() *CheckQueueResult {
	keys := []string{keyGlobal("config2")}
	for _, n := range QueueSizes {
		keys = append(keys, keyQueue(n))
	}
	res := s.get(keys...)
	out := &CheckQueueResult{TablePerM: make(map[trace.Class]float64)}
	for _, class := range classes {
		out.TablePerM[class] = summarizeMetric(ofClass(res[keyGlobal("config2")], class), falseReplaysPerM).Mean()
	}
	for _, n := range QueueSizes {
		row := CheckQueueRow{
			QueueSize:    n,
			FalsePerM:    make(map[trace.Class]float64),
			OverflowPerM: make(map[trace.Class]float64),
		}
		for _, class := range classes {
			var f, o stats.Summary
			for _, r := range ofClass(res[keyQueue(n)], class) {
				f.Observe(falseReplaysPerM(r))
				o.Observe(perMillion(r, r.Stats.Get("core_replay_overflow")))
			}
			row.FalsePerM[class] = f.Mean()
			row.OverflowPerM[class] = o.Mean()
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// EquivalentQueueSize returns the smallest swept queue size whose false
// replay rate is at or below the hash table's, per class (0 if none).
func (c *CheckQueueResult) EquivalentQueueSize(class trace.Class) int {
	for _, row := range c.Rows {
		if row.FalsePerM[class] <= c.TablePerM[class] {
			return row.QueueSize
		}
	}
	return 0
}

// String renders the sweep.
func (c *CheckQueueResult) String() string {
	var b strings.Builder
	t := stats.NewTable("Section 6.2.3: associative checking queue vs 2K hash table (false replays per 1M insts)",
		"scheme", "INT", "FP", "INT overflow/M", "FP overflow/M")
	t.AddRow("table-2048", c.TablePerM[trace.INT], c.TablePerM[trace.FP], 0.0, 0.0)
	for _, r := range c.Rows {
		t.AddRow(fmt.Sprintf("queue-%d", r.QueueSize),
			r.FalsePerM[trace.INT], r.FalsePerM[trace.FP],
			r.OverflowPerM[trace.INT], r.OverflowPerM[trace.FP])
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "equivalent queue size: INT %d, FP %d (paper estimate: ~16)\n",
		c.EquivalentQueueSize(trace.INT), c.EquivalentQueueSize(trace.FP))
	return b.String()
}

// An artifact is one table or figure of the evaluation: the name
// cmd/experiments -only selects it by, the section that prints it, and
// its renderer. A group has no renderer: it prints the artifacts whose
// section is its name.
type artifact struct {
	name    string
	section string // "report", "extensions", or "" (printed only by name)
	render  func(*Suite) string
}

// artifacts lists every artifact once, each section in the paper's order.
// Report, the extensions group and cmd/experiments -only all read it.
var artifacts = []artifact{
	{"figure2", "report", func(s *Suite) string { return s.Figure2().String() }},
	{"figure3", "report", func(s *Suite) string { return s.Figure3().String() }},
	{"yla", "report", func(s *Suite) string { return s.YLAEnergy().String() }},
	{"sqfilter", "report", func(s *Suite) string { return s.StoreFilterPotential().String() }},
	{"figure4", "report", func(s *Suite) string { return s.Figure4().String() }},
	{"table2", "report", func(s *Suite) string { return s.Table2().String() }},
	{"table3", "report", func(s *Suite) string { return s.Table3().String() }},
	{"safeloads", "report", func(s *Suite) string { return s.SafeLoadAblation().String() }},
	{"table4", "report", func(s *Suite) string { return s.Table4().String() }},
	{"table5", "report", func(s *Suite) string { return s.Table5().String() }},
	{"figure5", "report", func(s *Suite) string { return s.Figure5().String() }},
	{"queue", "report", func(s *Suite) string { return s.CheckQueueEquivalence().String() }},
	{"table6", "report", func(s *Suite) string { return s.Table6().String() }},
	{"extensions", "report", nil},
	{"tablesweep", "extensions", func(s *Suite) string { return s.TableSizeSweep().String() }},
	{"ylasweep", "extensions", func(s *Suite) string { return s.DMDCYLASweep().String() }},
	{"sqfilter-ext", "extensions", func(s *Suite) string { return s.SQFilterExtension().String() }},
	{"clamp", "extensions", func(s *Suite) string { return s.ClampAblation().String() }},
	{"relatedwork", "report", func(s *Suite) string { return s.RelatedWork().String() }},
	{"verification", "report", func(s *Suite) string { return s.VerificationComparison().String() }},
	{"detail", "", func(s *Suite) string { return s.Detail().String() }},
}

// ArtifactNames lists the name of every artifact, in table order.
func ArtifactNames() []string {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.name
	}
	return names
}

// Artifact runs the named artifact's experiments and renders it. An
// unknown name is an error that lists the valid ones.
func (s *Suite) Artifact(name string) (string, error) {
	for _, a := range artifacts {
		if a.name == name {
			return s.render(a), nil
		}
	}
	return "", fmt.Errorf("unknown artifact %q; valid artifacts: %s", name, strings.Join(ArtifactNames(), ", "))
}

// Report runs every experiment and renders the full evaluation, in the
// paper's order. This is what cmd/experiments prints. The report reads
// every run key, so it fetches them all in one matrix first: each
// benchmark's committed path is then recorded once for the whole report,
// and progress counts one sequence over every cell.
func (s *Suite) Report() string {
	s.get(RunKeys()...)
	return fmt.Sprintf("DMDC reproduction — %d instructions per benchmark, %d benchmarks\n\n",
		s.opts.Insts, len(s.opts.Benchmarks)) + s.section("report")
}

// render renders one artifact, or one group's section.
func (s *Suite) render(a artifact) string {
	if a.render == nil {
		return s.section(a.name)
	}
	return a.render(s)
}

// section renders the artifacts of the named section in table order, with
// a blank line between two of them unless the first already ends in one.
func (s *Suite) section(name string) string {
	var b strings.Builder
	for _, a := range artifacts {
		if a.section != name {
			continue
		}
		if b.Len() > 0 && !strings.HasSuffix(b.String(), "\n\n") {
			b.WriteByte('\n')
		}
		b.WriteString(s.render(a))
	}
	return b.String()
}
