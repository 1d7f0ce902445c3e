package experiments

import (
	"fmt"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/lsq"
	"dmdc/internal/stats"
	"dmdc/internal/trace"
)

// Extension and ablation experiments beyond the paper's published
// artifacts: design-space sweeps the paper's text argues about (checking
// table sizing, Section 6.2.2; YLA register count for DMDC itself), the
// Section 3 store-side filter the paper suggests as future work, and the
// wrong-path clamp remedy ablation.

// TableSweepSizes are the checking-table sizes swept by TableSizeSweep.
var TableSweepSizes = []int{256, 512, 1024, 2048, 4096, 8192}

// YLASweepCounts are the register counts swept by DMDCYLASweep.
var YLASweepCounts = []int{1, 2, 4, 8, 16}

func keyTableSize(n int) string { return fmt.Sprintf("dmdc-table%d", n) }
func keyYLACount(n int) string  { return fmt.Sprintf("dmdc-yla%d", n) }

const (
	keySQFilter      = "baseline-sqfilter"
	keyClampMonitors = "monitored-noclamp"
)

// DMDCTableFactory builds global DMDC with a specific table size.
func DMDCTableFactory(tableSize int) PolicyFactory {
	return func(m config.Machine, em *energy.Model) (lsq.Policy, error) {
		cfg := lsq.DefaultDMDCConfig(tableSize, m.ROBSize)
		return lsq.NewDMDC(cfg, em)
	}
}

// DMDCYLAFactory builds global DMDC with a specific YLA register count.
func DMDCYLAFactory(regs int) PolicyFactory {
	return func(m config.Machine, em *energy.Model) (lsq.Policy, error) {
		cfg := lsq.DefaultDMDCConfig(m.CheckTable, m.ROBSize)
		cfg.YLARegs = regs
		return lsq.NewDMDC(cfg, em)
	}
}

// clampAblationMonitors pairs clamped and unclamped YLA monitors.
func clampAblationMonitors() []lsq.Monitor {
	var ms []lsq.Monitor
	for _, n := range []int{1, 8} {
		ms = append(ms, lsq.NewYLAMonitor(n, lsq.QuadWordShift))
		ms = append(ms, lsq.NewYLAMonitorNoClamp(n, lsq.QuadWordShift))
	}
	return ms
}

// TableSizeRow is one table size's outcome per class.
type TableSizeRow struct {
	TableSize int
	FalsePerM map[trace.Class]float64
	HashPerM  map[trace.Class]float64 // hashing-conflict share
}

// TableSizeSweepResult shows the diminishing returns of growing the
// checking table (Section 6.2.2: "increasing the size of the checking
// table will have limited effectiveness").
type TableSizeSweepResult struct {
	Rows []TableSizeRow
}

// TableSizeSweep sweeps checking-table sizes on config2.
func (s *Suite) TableSizeSweep() *TableSizeSweepResult {
	var keys []string
	for _, n := range TableSweepSizes {
		keys = append(keys, keyTableSize(n))
	}
	res := s.get(keys...)
	out := &TableSizeSweepResult{}
	for _, n := range TableSweepSizes {
		row := TableSizeRow{
			TableSize: n,
			FalsePerM: make(map[trace.Class]float64),
			HashPerM:  make(map[trace.Class]float64),
		}
		for _, class := range classes {
			var f, h stats.Summary
			for _, r := range ofClass(res[keyTableSize(n)], class) {
				f.Observe(falseReplaysPerM(r))
				h.Observe(replayRatePerM(r, lsq.CauseFalseHashBefore) +
					replayRatePerM(r, lsq.CauseFalseHashX) +
					replayRatePerM(r, lsq.CauseFalseHashY))
			}
			row.FalsePerM[class] = f.Mean()
			row.HashPerM[class] = h.Mean()
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the sweep.
func (t *TableSizeSweepResult) String() string {
	tb := stats.NewTable("Extension: checking-table size sweep (global DMDC, config2; false replays per 1M insts)",
		"table size", "INT false", "INT hash-only", "FP false", "FP hash-only")
	for _, r := range t.Rows {
		tb.AddRow(r.TableSize, r.FalsePerM[trace.INT], r.HashPerM[trace.INT],
			r.FalsePerM[trace.FP], r.HashPerM[trace.FP])
	}
	return tb.String()
}

// YLACountRow is one register count's outcome per class.
type YLACountRow struct {
	Regs        int
	UnsafePct   map[trace.Class]float64
	CheckingPct map[trace.Class]float64
	FalsePerM   map[trace.Class]float64
	SlowdownPct map[trace.Class]float64
}

// DMDCYLASweepResult shows how DMDC's own YLA register count trades
// filtering effectiveness against checking-mode residency and replays.
type DMDCYLASweepResult struct {
	Rows []YLACountRow
}

// DMDCYLASweep sweeps the DMDC YLA register count on config2.
func (s *Suite) DMDCYLASweep() *DMDCYLASweepResult {
	keys := []string{keyBase("config2")}
	for _, n := range YLASweepCounts {
		keys = append(keys, keyYLACount(n))
	}
	res := s.get(keys...)
	base := res[keyBase("config2")]
	out := &DMDCYLASweepResult{}
	for _, n := range YLASweepCounts {
		row := YLACountRow{
			Regs:        n,
			UnsafePct:   make(map[trace.Class]float64),
			CheckingPct: make(map[trace.Class]float64),
			FalsePerM:   make(map[trace.Class]float64),
			SlowdownPct: make(map[trace.Class]float64),
		}
		rs := res[keyYLACount(n)]
		for _, class := range classes {
			var unsafePct, chk, f stats.Summary
			for _, r := range ofClass(rs, class) {
				unsafePct.Observe(100 - safeStorePct(r))
				chk.Observe(checkingPct(r))
				f.Observe(falseReplaysPerM(r))
			}
			slow := summarizePairs(pairsOf(base, rs, class), func(p pair) float64 { return 100 * p.slowdown() })
			row.UnsafePct[class] = unsafePct.Mean()
			row.CheckingPct[class] = chk.Mean()
			row.FalsePerM[class] = f.Mean()
			row.SlowdownPct[class] = slow.Mean()
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the sweep.
func (y *DMDCYLASweepResult) String() string {
	tb := stats.NewTable("Extension: DMDC YLA register count sweep (config2)",
		"#YLA", "INT unsafe %", "INT chk %", "INT false/M", "INT slow %",
		"FP unsafe %", "FP chk %", "FP false/M", "FP slow %")
	for _, r := range y.Rows {
		tb.AddRow(r.Regs,
			r.UnsafePct[trace.INT], r.CheckingPct[trace.INT], r.FalsePerM[trace.INT], r.SlowdownPct[trace.INT],
			r.UnsafePct[trace.FP], r.CheckingPct[trace.FP], r.FalsePerM[trace.FP], r.SlowdownPct[trace.FP])
	}
	return tb.String()
}

// SQFilterRow is one class's outcome for the store-side filter.
type SQFilterRow struct {
	Class        trace.Class
	FilterPct    stats.Summary
	SQSavingsPct stats.Summary
	TotalPct     stats.Summary
	SlowdownPct  stats.Summary
}

// SQFilterResult evaluates the Section 3 store-side extension: loads older
// than the oldest in-flight store skip the associative SQ search.
type SQFilterResult struct {
	Rows []SQFilterRow
}

// SQFilterExtension compares the baseline with and without the SQ filter.
func (s *Suite) SQFilterExtension() *SQFilterResult {
	res := s.get(keyBase("config2"), keySQFilter)
	out := &SQFilterResult{}
	for _, class := range classes {
		row := SQFilterRow{Class: class}
		for _, p := range pairsOf(res[keyBase("config2")], res[keySQFilter], class) {
			searches := p.test.Stats.Get("sq_searches")
			filtered := p.test.Stats.Get("sq_searches_filtered")
			if searches+filtered > 0 {
				row.FilterPct.Observe(100 * filtered / (searches + filtered))
			}
			row.SQSavingsPct.Observe(100 * energy.Savings(
				p.base.Energy.Of(energy.CompSQ), p.test.Energy.Of(energy.CompSQ)))
			row.TotalPct.Observe(100 * p.totalSavings())
			row.SlowdownPct.Observe(100 * p.slowdown())
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the extension's results.
func (r *SQFilterResult) String() string {
	tb := stats.NewTable("Extension (Section 3): store-side age filter — loads skipping the SQ search",
		"class", "searches filtered %", "SQ energy saved %", "processor saved %", "slowdown %")
	for _, row := range r.Rows {
		tb.AddRow(row.Class.String(), row.FilterPct.Mean(), row.SQSavingsPct.Mean(),
			row.TotalPct.Mean(), row.SlowdownPct.Mean())
	}
	return tb.String()
}

// ClampAblationRow compares clamped vs unclamped filtering per class.
type ClampAblationRow struct {
	Class      trace.Class
	Regs       int
	WithPct    stats.Summary
	WithoutPct stats.Summary
}

// ClampAblationResult quantifies the paper's wrong-path remedy: resetting
// YLA to the branch age on recovery. Without it, wrong-path loads leave
// permanently inflated ages in the registers and filtering decays.
type ClampAblationResult struct {
	Rows []ClampAblationRow
}

// ClampAblation measures filtering with and without the recovery clamp.
func (s *Suite) ClampAblation() *ClampAblationResult {
	rs := s.get(keyClampMonitors)[keyClampMonitors]
	out := &ClampAblationResult{}
	for _, class := range classes {
		group := ofClass(rs, class)
		for _, n := range []int{1, 8} {
			out.Rows = append(out.Rows, ClampAblationRow{
				Class:      class,
				Regs:       n,
				WithPct:    summarizeMetric(group, statPct(fmt.Sprintf("yla%d_qw_filter_rate", n))),
				WithoutPct: summarizeMetric(group, statPct(fmt.Sprintf("yla%d_qw_noclamp_filter_rate", n))),
			})
		}
	}
	return out
}

// String renders the ablation.
func (c *ClampAblationResult) String() string {
	tb := stats.NewTable("Ablation: YLA recovery clamp (wrong-path remedy, Section 3)",
		"class", "#YLA", "filter % with clamp", "filter % without")
	for _, r := range c.Rows {
		tb.AddRow(r.Class.String(), r.Regs, r.WithPct.Mean(), r.WithoutPct.Mean())
	}
	return tb.String()
}
