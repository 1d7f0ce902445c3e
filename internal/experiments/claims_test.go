package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"dmdc/internal/trace"
)

// The paper's claims, each stated once. A row names the artifact whose
// cmd/experiments -only output it reads, the claim, the paper's value,
// the condition this reproduction accepts it under, and its status:
// reproduced, or a known deviation Dn that EXPERIMENTS.md explains.
// TestPaperShapes checks every reproduced row at a moderate scale;
// TestExperimentsDoc checks every row at the documented scale and writes
// the rows, with what they measured, into EXPERIMENTS.md.

// reproduced is the status of a claim this reproduction holds to. Any
// other status names a known deviation.
const reproduced = "reproduced"

// A claim is one row of the table.
type claim struct {
	artifact string // the -only name whose generated block shows the row
	text     string // what is claimed, and the unit of the measured values
	paper    string // the paper's value or band, as published
	// accept is the condition every measured value must meet. For a known
	// deviation it is the paper's band, which this reproduction misses.
	accept  band
	status  string // reproduced, or "D1", "D2", …
	measure func(*Suite) []obs
}

// An obs is one measured value of a claim, labelled with what it covers.
type obs struct {
	label string
	v     float64
}

// A band is an acceptance condition: the value compared by op (≥ > ≤ < =)
// with x, or, for op "in", the closed range [x, hi].
type band struct {
	op    string
	x, hi float64
}

func atLeast(x float64) band     { return band{op: "≥", x: x} }
func above(x float64) band       { return band{op: ">", x: x} }
func atMost(x float64) band      { return band{op: "≤", x: x} }
func below(x float64) band       { return band{op: "<", x: x} }
func equal(x float64) band       { return band{op: "=", x: x} }
func within(lo, hi float64) band { return band{op: "in", x: lo, hi: hi} }

// holds reports whether v meets the band; NaN never does.
func (b band) holds(v float64) bool {
	switch b.op {
	case "≥":
		return v >= b.x
	case ">":
		return v > b.x
	case "≤":
		return v <= b.x
	case "<":
		return v < b.x
	case "=":
		return v == b.x
	case "in":
		return b.x <= v && v <= b.hi
	}
	panic("claims: unknown band operator " + b.op)
}

func (b band) String() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if b.op == "in" {
		return "in [" + g(b.x) + ", " + g(b.hi) + "]"
	}
	return b.op + " " + g(b.x)
}

// check measures the claim over s. It returns the measured values as the
// document prints them and whether every one of them meets the band; a
// claim that measures nothing does not hold.
func (c claim) check(s *Suite) (string, bool) {
	vs := c.measure(s)
	parts := make([]string, len(vs))
	ok := len(vs) > 0
	for i, o := range vs {
		parts[i] = strings.TrimSpace(o.label + " " + measuredNum(o.v))
		ok = ok && c.accept.holds(o.v)
	}
	return strings.Join(parts, ", "), ok
}

// measuredNum prints a measured value to three significant digits, with
// at most three decimals.
func measuredNum(v float64) string {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	d := 2 - int(math.Floor(math.Log10(math.Abs(v))))
	return strconv.FormatFloat(v, 'f', max(0, min(3, d)), 64)
}

// An outcome is one claim checked over a suite.
type outcome struct {
	claim
	measured string
	holds    bool
}

// evaluate checks every claim over s, in table order.
func evaluate(cs []claim, s *Suite) []outcome {
	out := make([]outcome, len(cs))
	for i, c := range cs {
		m, ok := c.check(s)
		out[i] = outcome{claim: c, measured: m, holds: ok}
	}
	return out
}

// verdict is the outcome as the document's verdict column states it.
func (o outcome) verdict() string {
	switch {
	case o.status == reproduced && o.holds:
		return "reproduced"
	case o.status == reproduced:
		return "**does not hold**"
	case o.holds:
		return "**holds: retire " + o.status + "**"
	}
	return "deviation " + o.status
}

// problem says why the claims gate rejects the outcome: a reproduced
// claim that does not hold, or a known deviation whose paper band now
// holds and so must be retired. It is "" when the gate accepts it.
func (o outcome) problem() string {
	switch {
	case o.status == reproduced && !o.holds:
		return fmt.Sprintf("%s: %q does not hold: measured %s, accepted if %s",
			o.artifact, o.text, o.measured, o.accept)
	case o.status != reproduced && o.holds:
		return fmt.Sprintf("%s: %q now holds (measured %s, paper band %s): retire deviation %s",
			o.artifact, o.text, o.measured, o.accept, o.status)
	}
	return ""
}

// classes are the two benchmark groups every artifact reports.
var classes = []trace.Class{trace.INT, trace.FP}

// perClass measures f once per class.
func perClass(f func(trace.Class) float64) []obs {
	out := make([]obs, len(classes))
	for i, c := range classes {
		out[i] = obs{c.String(), f(c)}
	}
	return out
}

// steps returns the differences between neighbouring values.
func steps(vs []float64) []float64 {
	var out []float64
	for i := 1; i < len(vs); i++ {
		out = append(out, vs[i]-vs[i-1])
	}
	return out
}

// pick returns the row match selects. An artifact's rows are fixed by its
// code, so a missing one is a bug: pick panics, failing the test.
func pick[T any](rows []T, match func(T) bool) T {
	for _, r := range rows {
		if match(r) {
			return r
		}
	}
	panic(fmt.Sprintf("claims: no %T row matches", rows))
}

// pointAt is the mean filtering rate at one structure size.
func pointAt(ps []FilterPoint, size int) float64 {
	return pick(ps, func(p FilterPoint) bool { return p.Size == size }).Pct.Mean()
}

// figure4 measures f on every configuration × class row of Figure 4.
func figure4(s *Suite, f func(Figure4Row) float64) []obs {
	var out []obs
	for _, r := range s.Figure4().Rows {
		out = append(out, obs{r.Config + " " + r.Class.String(), f(r)})
	}
	return out
}

// figure5 measures f on the rows of Figure 5 whose class is in cs.
func figure5(s *Suite, f func(Figure5Row) float64, cs ...trace.Class) []obs {
	var out []obs
	for _, r := range s.Figure5().Rows {
		for _, c := range cs {
			if r.Class == c {
				out = append(out, obs{r.Config + " " + r.Class.String(), f(r)})
			}
		}
	}
	return out
}

// table6At is one class's Table 6 row at one invalidation rate.
func table6At(t6 *Table6Result, c trace.Class, rate float64) Table6Row {
	return pick(t6.Rows, func(r Table6Row) bool { return r.Class == c && r.RatePer1K == rate })
}

// verification is one scheme's Section 7 row for one class.
func verification(v *VerificationResult, c trace.Class, scheme string) VerificationRow {
	return pick(v.Rows, func(r VerificationRow) bool { return r.Class == c && r.Scheme == scheme })
}

// hashShare is the share of a class's false replays that hashing
// conflicts cause, in percent.
func hashShare(r ReplayRow) float64 {
	return 100 * (r.HashBefore + r.HashX + r.HashY) / r.FalseTotal
}

// claims is the table, grouped by artifact in report order.
var claims = []claim{
	{"figure2", "8 quad-word-interleaved YLA registers filter most LQ searches (%)", "95–98%",
		within(90, 99.5), reproduced, func(s *Suite) []obs {
			f := s.Figure2()
			return perClass(func(c trace.Class) float64 { return pointAt(f.QuadWord[c], 8) })
		}},
	{"figure2", "Filtering rises with the register count (smallest step between counts, points)", "rises with count",
		atLeast(-0.5), reproduced, func(s *Suite) []obs {
			f := s.Figure2()
			return perClass(func(c trace.Class) float64 {
				var means []float64
				for _, p := range f.QuadWord[c] {
					means = append(means, p.Pct.Mean())
				}
				return slices.Min(steps(means))
			})
		}},
	{"figure2", "Cache-line interleaving is no better than quad-word at 4 or more registers (largest line − quad-word gap, points)", "much less effective",
		atMost(0.5), reproduced, func(s *Suite) []obs {
			f := s.Figure2()
			return perClass(func(c trace.Class) float64 {
				var gaps []float64
				for _, n := range YLACounts {
					if n >= 4 {
						gaps = append(gaps, pointAt(f.Line[c], n)-pointAt(f.QuadWord[c], n))
					}
				}
				return slices.Max(gaps)
			})
		}},
	{"figure2", "A single YLA register filters most LQ searches (%)", "most",
		atLeast(50), reproduced, func(s *Suite) []obs {
			f := s.Figure2()
			return perClass(func(c trace.Class) float64 { return pointAt(f.QuadWord[c], 1) })
		}},
	{"figure2", "A single YLA register filters 71% (INT) / 80% (FP) of LQ searches (%)", "71–80%",
		within(71, 80), "D1", func(s *Suite) []obs {
			f := s.Figure2()
			return perClass(func(c trace.Class) float64 { return pointAt(f.QuadWord[c], 1) })
		}},
	{"figure2", "16 line-interleaved registers filter no more than 4 quad-word ones (line 16 − quad-word 4, points)", "16 line ≈ 4 quad-word",
		atMost(0), "D2", func(s *Suite) []obs {
			f := s.Figure2()
			return perClass(func(c trace.Class) float64 { return pointAt(f.Line[c], 16) - pointAt(f.QuadWord[c], 4) })
		}},

	{"figure3", "8 YLA registers beat a 1024-entry Bloom filter (8 YLA − BF=1024, points)", "beats every swept Bloom filter",
		above(0), reproduced, func(s *Suite) []obs {
			f := s.Figure3()
			return perClass(func(c trace.Class) float64 { return f.YLA8[c].Mean() - pointAt(f.Bloom[c], 1024) })
		}},
	{"figure3", "A Bloom filter filters more as it grows (BF=1024 − BF=32, points)", "grows with size",
		above(0), reproduced, func(s *Suite) []obs {
			f := s.Figure3()
			return perClass(func(c trace.Class) float64 { return pointAt(f.Bloom[c], 1024) - pointAt(f.Bloom[c], 32) })
		}},

	{"yla", "With 8 YLA registers the LQ skips most of its searches (%)", "95–98%",
		within(90, 99.5), reproduced, func(s *Suite) []obs { return yla(s, func(r YLAEnergyRow) float64 { return r.FilterPct.Mean() }) }},
	{"yla", "YLA filtering alone saves LQ energy (%)", "~32.4%",
		within(15, 55), reproduced, func(s *Suite) []obs { return yla(s, func(r YLAEnergyRow) float64 { return r.LQSavingsPct.Mean() }) }},
	{"yla", "YLA filtering leaves timing unchanged (slowdown %)", "no impact",
		equal(0), reproduced, func(s *Suite) []obs { return yla(s, func(r YLAEnergyRow) float64 { return r.SlowdownPct.Mean() }) }},

	{"sqfilter", "Loads older than every in-flight store could skip the SQ search (% of loads, all benchmarks)", "~20%",
		within(1, 90), reproduced, func(s *Suite) []obs { return []obs{{"all", s.StoreFilterPotential().All.Mean()}} }},

	{"figure4", "DMDC eliminates most LQ-functionality energy (%)", "95–97%",
		atLeast(80), reproduced, func(s *Suite) []obs {
			return figure4(s, func(r Figure4Row) float64 { return r.LQSavingsPct.Mean() })
		}},
	{"figure4", "Net processor-wide energy savings (%)", "3–8%",
		within(1.5, 14), reproduced, func(s *Suite) []obs {
			return figure4(s, func(r Figure4Row) float64 { return r.TotalSavePct.Mean() })
		}},
	{"figure4", "The mean slowdown is negligible (%)", "≈0.3%",
		atMost(3), reproduced, func(s *Suite) []obs {
			return figure4(s, func(r Figure4Row) float64 { return r.SlowdownPct.Mean() })
		}},
	{"figure4", "Net savings grow with machine size (INT config3 − config1, points)", "grows from config1 to config3",
		above(0), reproduced, func(s *Suite) []obs {
			rows := s.Figure4().Rows
			net := func(cfg string) float64 {
				return pick(rows, func(r Figure4Row) bool { return r.Config == cfg && r.Class == trace.INT }).TotalSavePct.Mean()
			}
			return []obs{{"INT", net("config3") - net("config1")}}
		}},
	{"figure4", "FP's largest speedup is about 1% (smallest slowdown, %)", "≈ −1%",
		atLeast(-2), "D3", func(s *Suite) []obs {
			var out []obs
			for _, o := range figure4(s, func(r Figure4Row) float64 { return r.SlowdownPct.Min }) {
				if strings.HasSuffix(o.label, " FP") {
					out = append(out, o)
				}
			}
			return out
		}},

	{"table2", "Most resolved stores are safe (%)", "95–98%",
		atLeast(90), reproduced, func(s *Suite) []obs {
			return windows(s.Table2(), func(r WindowRow) float64 { return r.SafeStorePct.Mean() })
		}},
	{"table2", "A window's safe loads ≤ its loads ≤ its instructions (smallest margin)", "—",
		atLeast(0), reproduced, func(s *Suite) []obs {
			return windows(s.Table2(), func(r WindowRow) float64 {
				return min(r.Loads.Mean()-r.SafeLoads.Mean(), r.Insts.Mean()-r.Loads.Mean())
			})
		}},
	{"table2", "A checking window holds about 33 instructions (instructions per window)", "≈33",
		atMost(50), "D4", func(s *Suite) []obs {
			return windows(s.Table2(), func(r WindowRow) float64 { return r.Insts.Mean() })
		}},

	{"table3", "INT has more false replays than FP (INT − FP, per 1M insts)", "168 vs 35 per 1M",
		atLeast(0), reproduced, func(s *Suite) []obs {
			rs := s.Table3().Rows
			return []obs{{"", replayRow(rs, trace.INT).FalseTotal - replayRow(rs, trace.FP).FalseTotal}}
		}},
	{"table3", "Timing approximation, not hashing, causes most INT false replays (hashing share, %)", "≈11%",
		atMost(50), reproduced, func(s *Suite) []obs {
			return []obs{{"INT", hashShare(replayRow(s.Table3().Rows, trace.INT))}}
		}},
	{"table3", "Timing approximation, not hashing, causes most FP false replays (hashing share, %)", "≈26%",
		atMost(50), "D5", func(s *Suite) []obs {
			return []obs{{"FP", hashShare(replayRow(s.Table3().Rows, trace.FP))}}
		}},
	{"table3", "True violations are a few per million instructions (per 1M insts)", "a few per 1M",
		atMost(10), "D6", func(s *Suite) []obs {
			rs := s.Table3().Rows
			return perClass(func(c trace.Class) float64 { return replayRow(rs, c).TruePerM })
		}},

	{"safeloads", "Without the safe-load bypass, false replays rise (without ÷ with)", "roughly double",
		atLeast(1), reproduced, func(s *Suite) []obs {
			var out []obs
			for _, r := range s.SafeLoadAblation().Rows {
				out = append(out, obs{r.Class.String(), r.WithoutPerM / r.WithPerM})
			}
			return out
		}},

	{"table4", "Local windows are shorter than global ones (% shorter)", "13–25% shorter",
		above(0), reproduced, func(s *Suite) []obs {
			g, l := s.Table2(), s.Table4()
			return perClass(func(c trace.Class) float64 {
				return 100 * (1 - windowRow(l, c).Insts.Mean()/windowRow(g, c).Insts.Mean())
			})
		}},

	{"table5", "Local DMDC mitigates merged-window (Y) replays (local − global Y replays, per 1M insts)", "Y column mitigated",
		atMost(5), reproduced, func(s *Suite) []obs {
			g, l := s.Table3().Rows, s.Table5().Rows
			y := func(r ReplayRow) float64 { return r.AddrY + r.HashY }
			return perClass(func(c trace.Class) float64 { return y(replayRow(l, c)) - y(replayRow(g, c)) })
		}},

	{"figure5", "Local DMDC's mean slowdown is at most global's (local − global, points)", "local moderately better",
		atMost(0), "D8", func(s *Suite) []obs {
			return figure5(s, func(r Figure5Row) float64 { return r.Local.Mean() - r.Global.Mean() }, classes...)
		}},
	{"figure5", "Local DMDC's worst case is at most global's on INT (local − global maximum, points)", "noticeably lower worst cases",
		atMost(0), reproduced, func(s *Suite) []obs {
			return figure5(s, func(r Figure5Row) float64 { return r.Local.Max - r.Global.Max }, trace.INT)
		}},
	{"figure5", "Local DMDC's worst case is at most global's on FP (local − global maximum, points)", "noticeably lower worst cases",
		atMost(0), "D9", func(s *Suite) []obs {
			return figure5(s, func(r Figure5Row) float64 { return r.Local.Max - r.Global.Max }, trace.FP)
		}},

	{"queue", "INT false replays do not grow with queue size (largest rise between sizes, per 1M insts)", "—",
		atMost(0), reproduced, func(s *Suite) []obs {
			var rates []float64
			for _, r := range s.CheckQueueEquivalence().Rows {
				rates = append(rates, r.FalsePerM[trace.INT])
			}
			return []obs{{"INT", slices.Max(steps(rates))}}
		}},
	{"queue", "A queue of about 16 entries replays no more than the 2K-entry table (smallest such size)", "~16",
		equal(16), "D7", func(s *Suite) []obs {
			q := s.CheckQueueEquivalence()
			return perClass(func(c trace.Class) float64 { return float64(q.EquivalentQueueSize(c)) })
		}},

	{"table6", "Invalidations raise false replays (relative rate at 100 per 1K cycles)", "4.59× (INT)",
		atLeast(1.2), reproduced, func(s *Suite) []obs {
			t6 := s.Table6()
			return perClass(func(c trace.Class) float64 { return table6At(t6, c, 100).RelFalseReplay })
		}},
	{"table6", "The slowdown stays small at 100 invalidations per 1K cycles (%)", "1.36% (INT)",
		atMost(5), reproduced, func(s *Suite) []obs {
			t6 := s.Table6()
			return perClass(func(c trace.Class) float64 { return table6At(t6, c, 100).SlowdownPct })
		}},
	{"table6", "Checking-mode residency rises with invalidations (100 − 0 per 1K cycles, points)", "10% → 23.2% (INT)",
		atLeast(0), reproduced, func(s *Suite) []obs {
			t6 := s.Table6()
			return perClass(func(c trace.Class) float64 {
				return table6At(t6, c, 100).CheckingPct - table6At(t6, c, 0).CheckingPct
			})
		}},

	{"tablesweep", "Hashing replays shrink as the checking table grows (8192 − 256 entries, per 1M insts)", "limited effectiveness",
		below(0), reproduced, func(s *Suite) []obs {
			rows := s.TableSizeSweep().Rows
			return []obs{{"INT", rows[len(rows)-1].HashPerM[trace.INT] - rows[0].HashPerM[trace.INT]}}
		}},

	{"ylasweep", "More DMDC YLA registers leave fewer stores unsafe (16 − 1 registers, points)", "— (extension)",
		atMost(1), reproduced, func(s *Suite) []obs {
			return ylaSweep(s, func(r YLACountRow, c trace.Class) float64 { return r.UnsafePct[c] })
		}},
	{"ylasweep", "More DMDC YLA registers mean less time checking (16 − 1 registers, points)", "— (extension)",
		atMost(2), reproduced, func(s *Suite) []obs {
			return ylaSweep(s, func(r YLACountRow, c trace.Class) float64 { return r.CheckingPct[c] })
		}},

	{"sqfilter-ext", "The store-side filter leaves timing unchanged (slowdown %)", "— (§3 proposal)",
		within(-0.25, 0.25), reproduced, func(s *Suite) []obs {
			return sqFilter(s, func(r SQFilterRow) float64 { return r.SlowdownPct.Mean() })
		}},
	{"sqfilter-ext", "Some loads skip the SQ search (% of searches)", "— (§3 proposal)",
		above(0), reproduced, func(s *Suite) []obs {
			return sqFilter(s, func(r SQFilterRow) float64 { return r.FilterPct.Mean() })
		}},
	{"sqfilter-ext", "Skipped searches save SQ energy (%)", "— (§3 proposal)",
		above(0), reproduced, func(s *Suite) []obs {
			return sqFilter(s, func(r SQFilterRow) float64 { return r.SQSavingsPct.Mean() })
		}},

	{"clamp", "The recovery clamp does not hurt filtering (without − with clamp, points)", "simple and effective remedy",
		atMost(1), reproduced, func(s *Suite) []obs {
			var out []obs
			for _, r := range s.ClampAblation().Rows {
				out = append(out, obs{fmt.Sprintf("%s %d YLA", r.Class, r.Regs), r.WithoutPct.Mean() - r.WithPct.Mean()})
			}
			return out
		}},

	{"relatedwork", "The age table is accessed more often than DMDC's table (age table ÷ DMDC accesses)", "fewer accesses",
		above(1), reproduced, func(s *Suite) []obs {
			var out []obs
			for _, r := range s.RelatedWork().Rows {
				out = append(out, obs{r.Class.String(), r.AgeTableAccessesPerK / r.DMDCTableAccessesPerK})
			}
			return out
		}},
	{"relatedwork", "DMDC replays less than the age table (DMDC − age table, per 1M insts)", "fewer replays",
		atMost(0), reproduced, func(s *Suite) []obs {
			var out []obs
			for _, r := range s.RelatedWork().Rows {
				out = append(out, obs{r.Class.String(), r.DMDCReplaysPerM - r.AgeTableReplaysPerM})
			}
			return out
		}},

	{"verification", "Value-based checking re-reads the cache for every load (extra L1D accesses per 1K insts)", "elevated bandwidth",
		atLeast(100), reproduced, func(s *Suite) []obs {
			v := s.VerificationComparison()
			return perClass(func(c trace.Class) float64 { return verification(v, c, "value-based").ExtraL1DPerK })
		}},
	{"verification", "An SVW filter recovers most of that bandwidth (value+svw ÷ value-based extra L1D)", "—",
		atMost(0.5), reproduced, func(s *Suite) []obs {
			v := s.VerificationComparison()
			return perClass(func(c trace.Class) float64 {
				return verification(v, c, "value+svw").ExtraL1DPerK / verification(v, c, "value-based").ExtraL1DPerK
			})
		}},
	{"verification", "DMDC needs no more extra bandwidth than value+svw (DMDC − value+svw, per 1K insts)", "—",
		atMost(5), reproduced, func(s *Suite) []obs {
			v := s.VerificationComparison()
			return perClass(func(c trace.Class) float64 {
				return verification(v, c, "dmdc").ExtraL1DPerK - verification(v, c, "value+svw").ExtraL1DPerK
			})
		}},
	{"verification", "Exact value-based checking replays no more than DMDC (value-based − DMDC, per 1M insts)", "—",
		atMost(10), reproduced, func(s *Suite) []obs {
			v := s.VerificationComparison()
			return perClass(func(c trace.Class) float64 {
				return verification(v, c, "value-based").ReplaysPerM - verification(v, c, "dmdc").ReplaysPerM
			})
		}},
}

// yla measures f on each class's Section 6.1 row.
func yla(s *Suite, f func(YLAEnergyRow) float64) []obs {
	var out []obs
	for _, r := range s.YLAEnergy().Rows {
		out = append(out, obs{r.Class.String(), f(r)})
	}
	return out
}

// sqFilter measures f on each class's store-side filter row.
func sqFilter(s *Suite, f func(SQFilterRow) float64) []obs {
	var out []obs
	for _, r := range s.SQFilterExtension().Rows {
		out = append(out, obs{r.Class.String(), f(r)})
	}
	return out
}

// windows measures f on each class's window-contents row.
func windows(w *WindowStats, f func(WindowRow) float64) []obs {
	return perClass(func(c trace.Class) float64 { return f(windowRow(w, c)) })
}

// windowRow is one class's window-contents row.
func windowRow(w *WindowStats, c trace.Class) WindowRow {
	return pick(w.Rows, func(r WindowRow) bool { return r.Class == c })
}

// replayRow is one class's false-replay breakdown.
func replayRow(rs []ReplayRow, c trace.Class) ReplayRow {
	return pick(rs, func(r ReplayRow) bool { return r.Class == c })
}

// ylaSweep measures how f changes from the fewest to the most DMDC YLA
// registers, per class.
func ylaSweep(s *Suite, f func(YLACountRow, trace.Class) float64) []obs {
	rows := s.DMDCYLASweep().Rows
	return perClass(func(c trace.Class) float64 { return f(rows[len(rows)-1], c) - f(rows[0], c) })
}
