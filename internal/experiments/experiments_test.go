package experiments

import (
	"strings"
	"sync"
	"testing"

	"dmdc/internal/core"
	"dmdc/internal/resultcache"
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

// structureSuite is the one small suite the per-artifact structure tests
// share: an INT and an FP benchmark at a short budget, so every artifact
// has rows for both classes. Built on first use.
var structureSuite = sync.OnceValue(func() *Suite {
	return mustSuite(Options{Insts: 40_000, Benchmarks: []string{"gzip", "swim"}})
})

// testSuite builds a small, fast suite: a benchmark subset and a short
// instruction budget.
func testSuite(t *testing.T, insts uint64, benches ...string) *Suite {
	t.Helper()
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

// The per-artifact tests below check what each artifact holds and how it
// renders, not its numbers: the claims table states every claim about the
// numbers once, and TestPaperShapes and TestExperimentsDoc check it.

func TestFigure2Shape(t *testing.T) {
	f := structureSuite().Figure2()
	for _, class := range classes {
		if len(f.QuadWord[class]) != len(YLACounts) || len(f.Line[class]) != len(YLACounts) {
			t.Fatalf("%v: %d quad-word and %d line points, want %d",
				class, len(f.QuadWord[class]), len(f.Line[class]), len(YLACounts))
		}
	}
	out := f.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "INT") {
		t.Error("figure 2 rendering incomplete")
	}
}

func TestFigure3Shape(t *testing.T) {
	f := structureSuite().Figure3()
	for _, class := range classes {
		if len(f.Bloom[class]) != len(BloomSizes) {
			t.Fatalf("bloom sweep missing points")
		}
	}
	if !strings.Contains(f.String(), "BF=1024") {
		t.Error("figure 3 rendering incomplete")
	}
}

func TestYLAEnergy(t *testing.T) {
	y := structureSuite().YLAEnergy()
	if len(y.Rows) != 2 {
		t.Fatal("missing class rows")
	}
	if !strings.Contains(y.String(), "6.1") {
		t.Error("rendering incomplete")
	}
}

func TestFigure4Shape(t *testing.T) {
	f := structureSuite().Figure4()
	if len(f.Rows) != 6 { // 3 configs × 2 classes
		t.Fatalf("rows = %d, want 6", len(f.Rows))
	}
	if !strings.Contains(f.String(), "config3") {
		t.Error("rendering incomplete")
	}
}

func TestTable2And4(t *testing.T) {
	s := structureSuite()
	for _, w := range []*WindowStats{s.Table2(), s.Table4()} {
		if len(w.Rows) != 2 {
			t.Fatalf("%s: rows = %d", w.Variant, len(w.Rows))
		}
		for _, r := range w.Rows {
			if r.Insts.Mean() <= 0 || r.Loads.Mean() <= 0 {
				t.Errorf("%s: empty window stats: %+v", w.Variant, r)
			}
		}
	}
	if !strings.Contains(s.Table2().String(), "Table 2") || !strings.Contains(s.Table4().String(), "Table 4") {
		t.Error("rendering incomplete")
	}
}

func TestTable3And5(t *testing.T) {
	s := structureSuite()
	for _, b := range []*ReplayBreakdown{s.Table3(), s.Table5()} {
		if len(b.Rows) != 2 {
			t.Fatalf("%s: rows = %d", b.Variant, len(b.Rows))
		}
		for _, r := range b.Rows {
			if r.FalseTotal < 0 {
				t.Errorf("negative false replay rate")
			}
			sum := r.AddrX + r.AddrY + r.HashBefore + r.HashX + r.HashY + r.InvPerM
			if sum > r.FalseTotal*1.3+1 {
				t.Errorf("%s %v: breakdown (%.1f) exceeds total (%.1f)", b.Variant, r.Class, sum, r.FalseTotal)
			}
		}
	}
	if !strings.Contains(s.Table3().String(), "hashing conflict") {
		t.Error("rendering incomplete")
	}
}

func TestFigure5(t *testing.T) {
	f := structureSuite().Figure5()
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
	t6 := structureSuite().Table6()
	if len(t6.Rows) != 2*len(InvRates) {
		t.Fatalf("rows = %d", len(t6.Rows))
	}
	if !strings.Contains(t6.String(), "Table 6") {
		t.Error("rendering incomplete")
	}
}

func TestStoreFilterPotential(t *testing.T) {
	r := structureSuite().StoreFilterPotential()
	if r.All.N == 0 {
		t.Fatal("no data")
	}
	if !strings.Contains(r.String(), "Section 3") {
		t.Error("rendering incomplete")
	}
}

func TestSafeLoadAblation(t *testing.T) {
	a := structureSuite().SafeLoadAblation()
	if len(a.Rows) != 2 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	if !strings.Contains(a.String(), "ablation") {
		t.Error("rendering incomplete")
	}
}

func TestCheckQueueEquivalence(t *testing.T) {
	c := structureSuite().CheckQueueEquivalence()
	if len(c.Rows) != len(QueueSizes) {
		t.Fatalf("rows = %d", len(c.Rows))
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
	out := structureSuite().Report()
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
