package experiments

import (
	"strings"
	"testing"

	"dmdc/internal/core"
	"dmdc/internal/resultcache"
	"dmdc/internal/trace"
)

// openCache opens a result cache on dir, closed when the test ends: a
// Suite uses the store its caller opened and owns none of its own.
func openCache(t *testing.T, dir string) *resultcache.Cache {
	t.Helper()
	c, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// testSuite builds a small, fast suite: a benchmark subset and a short
// instruction budget. Shapes are noisier at this scale, so assertions stay
// loose; the full-budget checks live in the paper-shape tests that run
// without -short.
func testSuite(t *testing.T, insts uint64, benches ...string) *Suite {
	t.Helper()
	if len(benches) == 0 {
		benches = []string{"gzip", "gcc", "vortex", "swim", "applu", "art"}
	}
	s, err := NewSuite(Options{Insts: insts, Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustSuite is the non-testing.T variant for helpers that predate t.
func mustSuite(o Options) *Suite {
	s, err := NewSuite(o)
	if err != nil {
		panic(err)
	}
	return s
}

// Options returns the normalized options in effect.
func (s *Suite) Options() Options { return s.opts }

// Results returns the per-benchmark results of one run key, running them
// if needed.
func (s *Suite) Results(key string) []*core.Result {
	return s.get(key)[key]
}

func TestOptionsNormalization(t *testing.T) {
	o, err := Options{}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if o.Insts == 0 || o.Parallelism <= 0 || len(o.Benchmarks) != 26 {
		t.Errorf("normalization incomplete: %+v", o)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewSuite(Options{Benchmarks: []string{"no-such-bench"}}); err == nil {
		t.Error("unknown benchmark accepted")
	} else if !strings.Contains(err.Error(), "gzip") {
		t.Errorf("error does not list valid benchmarks: %v", err)
	}
	if _, err := NewSuite(Options{Benchmarks: []string{"gzip", ""}}); err == nil {
		t.Error("empty benchmark name accepted")
	}
	s, err := NewSuite(Options{Benchmarks: []string{" gzip", "swim "}})
	if err != nil {
		t.Fatalf("whitespace-padded names rejected: %v", err)
	}
	if got := s.Options().Benchmarks; got[0] != "gzip" || got[1] != "swim" {
		t.Errorf("names not trimmed: %q", got)
	}
}

func TestParseBenchmarks(t *testing.T) {
	bs, err := ParseBenchmarks(" gzip, mcf")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 || bs[0] != "gzip" || bs[1] != "mcf" {
		t.Errorf("ParseBenchmarks = %q", bs)
	}
	if _, err := ParseBenchmarks("gzip,,mcf"); err == nil {
		t.Error("empty element accepted")
	}
	if _, err := ParseBenchmarks("no-such-bench"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSpecForUnknownKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown key accepted")
		}
	}()
	mustSuite(Options{}).specFor("nonsense")
}

func TestFigure2Shape(t *testing.T) {
	s := testSuite(t, 60_000)
	f := s.Figure2()
	for _, class := range []trace.Class{trace.INT, trace.FP} {
		qw := f.QuadWord[class]
		if len(qw) != len(YLACounts) {
			t.Fatalf("%v: %d points, want %d", class, len(qw), len(YLACounts))
		}
		// Filtering must be monotonically non-decreasing in register count.
		for i := 1; i < len(qw); i++ {
			if qw[i].Pct.Mean() < qw[i-1].Pct.Mean()-1.0 {
				t.Errorf("%v: qw filtering not monotone: %v", class, qw)
			}
		}
		// Even one register filters most searches (paper: 71-80%).
		if qw[0].Pct.Mean() < 50 {
			t.Errorf("%v: single-YLA filtering %.1f%% too low", class, qw[0].Pct.Mean())
		}
		// Eight registers reach high rates (paper: 95-98%).
		if qw[3].Pct.Mean() < 80 {
			t.Errorf("%v: 8-YLA filtering %.1f%% too low", class, qw[3].Pct.Mean())
		}
	}
	out := f.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "INT") {
		t.Error("figure 2 rendering incomplete")
	}
}

func TestFigure3Shape(t *testing.T) {
	s := testSuite(t, 60_000)
	f := s.Figure3()
	for _, class := range []trace.Class{trace.INT, trace.FP} {
		if len(f.Bloom[class]) != len(BloomSizes) {
			t.Fatalf("bloom sweep missing points")
		}
		// Bigger bloom filters filter more.
		first := f.Bloom[class][0].Pct.Mean()
		last := f.Bloom[class][len(BloomSizes)-1].Pct.Mean()
		if last <= first {
			t.Errorf("%v: bloom filtering not improving with size: %.1f -> %.1f", class, first, last)
		}
		// 8 YLA registers beat the small bloom filters decisively (the
		// paper's headline comparison).
		if f.YLA8[class].Mean() <= first {
			t.Errorf("%v: YLA8 (%.1f%%) should beat BF=32 (%.1f%%)", class, f.YLA8[class].Mean(), first)
		}
	}
	if !strings.Contains(f.String(), "BF=1024") {
		t.Error("figure 3 rendering incomplete")
	}
}

func TestYLAEnergy(t *testing.T) {
	s := testSuite(t, 60_000)
	y := s.YLAEnergy()
	if len(y.Rows) != 2 {
		t.Fatal("missing class rows")
	}
	for _, r := range y.Rows {
		// Paper: ~32% LQ energy saved by filtering alone, no slowdown.
		if r.LQSavingsPct.Mean() < 10 {
			t.Errorf("%v: YLA-only LQ savings %.1f%% too low", r.Class, r.LQSavingsPct.Mean())
		}
		if r.SlowdownPct.Mean() > 1.5 || r.SlowdownPct.Mean() < -1.5 {
			t.Errorf("%v: YLA filtering changed performance by %.2f%%, expected ≈0", r.Class, r.SlowdownPct.Mean())
		}
		if r.FilterPct.Mean() < 50 {
			t.Errorf("%v: filter rate %.1f%% too low", r.Class, r.FilterPct.Mean())
		}
	}
	if !strings.Contains(y.String(), "6.1") {
		t.Error("rendering incomplete")
	}
}

func TestFigure4Shape(t *testing.T) {
	s := testSuite(t, 60_000, "gzip", "swim")
	f := s.Figure4()
	if len(f.Rows) != 6 { // 3 configs × 2 classes
		t.Fatalf("rows = %d, want 6", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.LQSavingsPct.Mean() < 60 {
			t.Errorf("%s/%v: LQ savings %.1f%% too low (paper 95-97%%)", r.Config, r.Class, r.LQSavingsPct.Mean())
		}
		if r.SlowdownPct.Mean() > 8 {
			t.Errorf("%s/%v: slowdown %.1f%% too high (paper ~0.3%%)", r.Config, r.Class, r.SlowdownPct.Mean())
		}
		if r.TotalSavePct.Mean() < -2 {
			t.Errorf("%s/%v: net energy loss %.1f%%", r.Config, r.Class, r.TotalSavePct.Mean())
		}
	}
	if !strings.Contains(f.String(), "config3") {
		t.Error("rendering incomplete")
	}
}

func TestTable2And4(t *testing.T) {
	s := testSuite(t, 80_000, "gzip", "gcc", "swim")
	t2 := s.Table2()
	t4 := s.Table4()
	for i, r := range t2.Rows {
		if r.Insts.Mean() <= 0 || r.Loads.Mean() <= 0 {
			t.Errorf("empty window stats: %+v", r)
		}
		if r.Loads.Mean() > r.Insts.Mean() {
			t.Errorf("more loads than instructions in window")
		}
		if r.SafeLoads.Mean() > r.Loads.Mean() {
			t.Errorf("more safe loads than loads")
		}
		// Local windows are smaller (paper: 13-25% shorter).
		if t4.Rows[i].Insts.Mean() > r.Insts.Mean()*1.10 {
			t.Errorf("%v: local windows (%.1f) bigger than global (%.1f)",
				r.Class, t4.Rows[i].Insts.Mean(), r.Insts.Mean())
		}
	}
	if !strings.Contains(t2.String(), "Table 2") || !strings.Contains(t4.String(), "Table 4") {
		t.Error("rendering incomplete")
	}
}

func TestTable3And5(t *testing.T) {
	s := testSuite(t, 80_000, "gzip", "gcc", "vortex", "swim")
	t3 := s.Table3()
	t5 := s.Table5()
	for _, r := range t3.Rows {
		if r.FalseTotal < 0 {
			t.Errorf("negative false replay rate")
		}
		sum := r.AddrX + r.AddrY + r.HashBefore + r.HashX + r.HashY + r.InvPerM
		if sum > r.FalseTotal*1.3+1 {
			t.Errorf("%v: breakdown (%.1f) exceeds total (%.1f)", r.Class, sum, r.FalseTotal)
		}
	}
	// Local DMDC mitigates merged-window (Y) replays.
	for i := range t3.Rows {
		if t5.Rows[i].AddrY > t3.Rows[i].AddrY*1.5+5 {
			t.Errorf("local DMDC did not mitigate Y replays: %.1f vs %.1f",
				t5.Rows[i].AddrY, t3.Rows[i].AddrY)
		}
	}
	if !strings.Contains(t3.String(), "hashing conflict") {
		t.Error("rendering incomplete")
	}
}

func TestFigure5(t *testing.T) {
	s := testSuite(t, 50_000, "gcc", "swim")
	f := s.Figure5()
	if len(f.Rows) != 6 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.Global.N == 0 || r.Local.N == 0 {
			t.Error("missing data")
		}
	}
	if !strings.Contains(f.String(), "local mean") {
		t.Error("rendering incomplete")
	}
}

func TestTable6(t *testing.T) {
	s := testSuite(t, 60_000, "gcc", "swim")
	t6 := s.Table6()
	if len(t6.Rows) != 2*len(InvRates) {
		t.Fatalf("rows = %d", len(t6.Rows))
	}
	// Higher invalidation rates mean more checking and more replays.
	for _, class := range []trace.Class{trace.INT, trace.FP} {
		var zero, hundred Table6Row
		for _, r := range t6.Rows {
			if r.Class != class {
				continue
			}
			if r.RatePer1K == 0 {
				zero = r
			}
			if r.RatePer1K == 100 {
				hundred = r
			}
		}
		if hundred.CheckingPct < zero.CheckingPct {
			t.Errorf("%v: checking%% fell with invalidations: %.1f -> %.1f",
				class, zero.CheckingPct, hundred.CheckingPct)
		}
		if hundred.RelFalseReplay < 1.0 {
			t.Errorf("%v: false replays fell under invalidation pressure: %.2f", class, hundred.RelFalseReplay)
		}
	}
	if !strings.Contains(t6.String(), "Table 6") {
		t.Error("rendering incomplete")
	}
}

func TestStoreFilterPotential(t *testing.T) {
	s := testSuite(t, 60_000)
	r := s.StoreFilterPotential()
	if r.All.N == 0 {
		t.Fatal("no data")
	}
	if r.All.Mean() < 1 || r.All.Mean() > 90 {
		t.Errorf("SQ filter headroom %.1f%% implausible", r.All.Mean())
	}
	if !strings.Contains(r.String(), "Section 3") {
		t.Error("rendering incomplete")
	}
}

func TestSafeLoadAblation(t *testing.T) {
	s := testSuite(t, 100_000, "gcc", "vortex", "swim")
	a := s.SafeLoadAblation()
	for _, r := range a.Rows {
		// Removing the bypass must not reduce replays.
		if r.WithoutPerM < r.WithPerM*0.8 {
			t.Errorf("%v: replays fell without safe loads: %.1f -> %.1f",
				r.Class, r.WithPerM, r.WithoutPerM)
		}
	}
	if !strings.Contains(a.String(), "ablation") {
		t.Error("rendering incomplete")
	}
}

func TestCheckQueueEquivalence(t *testing.T) {
	s := testSuite(t, 80_000, "gcc", "vortex")
	c := s.CheckQueueEquivalence()
	if len(c.Rows) != len(QueueSizes) {
		t.Fatalf("rows = %d", len(c.Rows))
	}
	// Bigger queues never cause more replays (less overflow, no hashing).
	intRates := make([]float64, 0, len(c.Rows))
	for _, r := range c.Rows {
		intRates = append(intRates, r.FalsePerM[trace.INT])
	}
	for i := 1; i < len(intRates); i++ {
		if intRates[i] > intRates[i-1]*1.5+10 {
			t.Errorf("queue replay rate grew with size: %v", intRates)
		}
	}
	if !strings.Contains(c.String(), "equivalent queue size") {
		t.Error("rendering incomplete")
	}
}

func TestResultsAccessor(t *testing.T) {
	s := testSuite(t, 30_000, "gzip")
	rs := s.Results(keyBase("config2"))
	if len(rs) != 1 || rs[0] == nil || rs[0].Benchmark != "gzip" {
		t.Fatalf("results accessor broken: %v", rs)
	}
	// Cached: a second call must not re-run (same pointers).
	rs2 := s.Results(keyBase("config2"))
	if rs[0] != rs2[0] {
		t.Error("results not cached")
	}
}

func TestReportRendersEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	s := testSuite(t, 40_000, "gzip", "swim")
	out := s.Report()
	for _, want := range []string{
		"Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
		"Section 6.1", "Section 3", "ablation", "checking queue",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
