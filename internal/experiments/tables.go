package experiments

import (
	"fmt"
	"strings"

	"dmdc/internal/core"
	"dmdc/internal/lsq"
	"dmdc/internal/stats"
	"dmdc/internal/trace"
)

// WindowStats reproduces Tables 2 and 4: the average number of
// instructions, loads, and safe loads inside a checking window, plus some
// companion statistics the paper quotes in the text (% cycles in checking
// mode, % of windows with a single unsafe store, % safe stores).
type WindowStats struct {
	Variant string // "global" or "local"
	Rows    []WindowRow
}

// WindowRow is one class's aggregate.
type WindowRow struct {
	Class          trace.Class
	Insts          stats.Summary
	Loads          stats.Summary
	SafeLoads      stats.Summary
	CheckingPct    stats.Summary
	SingleStorePct stats.Summary
	SafeStorePct   stats.Summary
}

func (s *Suite) windowStats(key, variant string) *WindowStats {
	rs := s.get(key)[key]
	out := &WindowStats{Variant: variant}
	for _, class := range classes {
		row := WindowRow{Class: class}
		for _, r := range ofClass(rs, class) {
			i, l, sl := windowMeans(r)
			row.Insts.Observe(i)
			row.Loads.Observe(l)
			row.SafeLoads.Observe(sl)
			row.CheckingPct.Observe(checkingPct(r))
			row.SingleStorePct.Observe(singleStoreWindowPct(r))
			row.SafeStorePct.Observe(safeStorePct(r))
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Table2 reproduces Table 2 (global DMDC window contents, config2).
func (s *Suite) Table2() *WindowStats {
	return s.windowStats(keyGlobal("config2"), "global")
}

// Table4 reproduces Table 4 (local DMDC window contents, config2).
func (s *Suite) Table4() *WindowStats {
	return s.windowStats(keyLocal("config2"), "local")
}

// String renders the window-content table.
func (w *WindowStats) String() string {
	name := "Table 2"
	if w.Variant == "local" {
		name = "Table 4"
	}
	t := stats.NewTable(fmt.Sprintf("%s: checking-window contents (%s DMDC, config2)", name, w.Variant),
		"class", "instructions", "loads", "safe loads", "% cycles checking", "% 1-store windows", "% safe stores")
	for _, r := range w.Rows {
		t.AddRow(r.Class.String(), r.Insts.Mean(), r.Loads.Mean(), r.SafeLoads.Mean(),
			r.CheckingPct.Mean(), r.SingleStorePct.Mean(), r.SafeStorePct.Mean())
	}
	return t.String()
}

// ReplayBreakdown reproduces Tables 3 and 5: false replays per million
// committed instructions, split by cause (address match vs hashing
// conflict × load-issued-before vs after × real window X vs merged Y).
type ReplayBreakdown struct {
	Variant string
	Rows    []ReplayRow
}

// ReplayRow is one class's breakdown (rates per million instructions).
type ReplayRow struct {
	Class      trace.Class
	TruePerM   float64 // genuine violations (the "–" cell): not false replays
	AddrX      float64
	AddrY      float64
	HashBefore float64
	HashX      float64
	HashY      float64
	InvPerM    float64
	FalseTotal float64
}

func (s *Suite) replayBreakdown(key, variant string) *ReplayBreakdown {
	rs := s.get(key)[key]
	out := &ReplayBreakdown{Variant: variant}
	for _, class := range classes {
		group := ofClass(rs, class)
		row := ReplayRow{Class: class}
		mean := func(c lsq.Cause) float64 {
			return summarizeMetric(group, func(r *core.Result) float64 {
				return replayRatePerM(r, c)
			}).Mean()
		}
		row.TruePerM = mean(lsq.CauseTrue)
		row.AddrX = mean(lsq.CauseFalseAddrX)
		row.AddrY = mean(lsq.CauseFalseAddrY)
		row.HashBefore = mean(lsq.CauseFalseHashBefore)
		row.HashX = mean(lsq.CauseFalseHashX)
		row.HashY = mean(lsq.CauseFalseHashY)
		row.InvPerM = mean(lsq.CauseInvalidation)
		row.FalseTotal = summarizeMetric(group, falseReplaysPerM).Mean()
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Table3 reproduces Table 3 (global DMDC false-replay breakdown, config2).
func (s *Suite) Table3() *ReplayBreakdown {
	return s.replayBreakdown(keyGlobal("config2"), "global")
}

// Table5 reproduces Table 5 (local DMDC false-replay breakdown, config2).
func (s *Suite) Table5() *ReplayBreakdown {
	return s.replayBreakdown(keyLocal("config2"), "local")
}

// String renders the breakdown in the paper's layout, with percentages of
// the false total in parentheses.
func (b *ReplayBreakdown) String() string {
	name := "Table 3"
	if b.Variant == "local" {
		name = "Table 5"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: false replays per 1M committed instructions (%s DMDC, config2)\n", name, b.Variant)
	cell := func(v, total float64) string {
		pct := 0.0
		if total > 0 {
			pct = 100 * v / total
		}
		return fmt.Sprintf("%.1f (%.0f%%)", v, pct)
	}
	t := stats.NewTable("", "class", "kind", "load before store", "X (in window)", "Y (merged)")
	for _, r := range b.Rows {
		t.AddRow(r.Class.String(), "address match", "- (true: "+fmt.Sprintf("%.1f", r.TruePerM)+"/M)",
			cell(r.AddrX, r.FalseTotal), cell(r.AddrY, r.FalseTotal))
		t.AddRow("", "hashing conflict", cell(r.HashBefore, r.FalseTotal),
			cell(r.HashX, r.FalseTotal), cell(r.HashY, r.FalseTotal))
	}
	sb.WriteString(t.String())
	return sb.String()
}

// Table6Row is one invalidation rate's statistics for one class.
type Table6Row struct {
	Class          trace.Class
	RatePer1K      float64
	CheckingPct    float64
	RelWindowSize  float64
	RelFalseReplay float64
	SlowdownPct    float64
}

// Table6Result reproduces Table 6: the impact of injected external
// invalidations at 0/1/10/100 per 1000 cycles (config2, global DMDC).
type Table6Result struct {
	Rows []Table6Row
}

// Table6 sweeps the invalidation rates. Relative columns are normalized to
// the zero-invalidation run, as in the paper; slowdown is vs the
// conventional baseline.
func (s *Suite) Table6() *Table6Result {
	keys := []string{keyBase("config2")}
	for _, rate := range InvRates {
		keys = append(keys, keyInv(rate))
	}
	res := s.get(keys...)
	base := res[keyBase("config2")]
	out := &Table6Result{}
	for _, class := range classes {
		// Zero-rate reference values.
		var refWin, refReplay float64
		for _, rate := range InvRates {
			rs := res[keyInv(rate)]
			var chk, win, repl stats.Summary
			for _, r := range ofClass(rs, class) {
				chk.Observe(checkingPct(r))
				wi, _, _ := windowMeans(r)
				win.Observe(wi)
				repl.Observe(falseReplaysPerM(r))
			}
			slow := summarizePairs(pairsOf(base, rs, class), func(p pair) float64 { return 100 * p.slowdown() })
			if rate == 0 {
				refWin, refReplay = win.Mean(), repl.Mean()
			}
			rw, rr := 1.0, 1.0
			if refWin > 0 {
				rw = win.Mean() / refWin
			}
			if refReplay > 0 {
				rr = repl.Mean() / refReplay
			}
			out.Rows = append(out.Rows, Table6Row{
				Class:          class,
				RatePer1K:      rate,
				CheckingPct:    chk.Mean(),
				RelWindowSize:  rw,
				RelFalseReplay: rr,
				SlowdownPct:    slow.Mean(),
			})
		}
	}
	return out
}

// String renders the invalidation sweep.
func (t6 *Table6Result) String() string {
	t := stats.NewTable("Table 6: impact of external invalidations (config2, global DMDC)",
		"class", "inv per 1K cycles", "% cycles checking", "rel window size", "rel false replays", "slowdown %")
	for _, r := range t6.Rows {
		t.AddRow(r.Class.String(), r.RatePer1K, r.CheckingPct, r.RelWindowSize, r.RelFalseReplay, r.SlowdownPct)
	}
	return t.String()
}
