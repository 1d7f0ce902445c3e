package experiments

import (
	"errors"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/lsq"
	"dmdc/internal/soundness"
)

// TestFactoryErrorQuarantined: a factory that reports a configuration
// error (rather than panicking) must surface as a labeled *RunError while
// sibling specs keep their results.
func TestFactoryErrorQuarantined(t *testing.T) {
	s := mustSuite(Options{Insts: 2000, Benchmarks: []string{"gzip"}})
	good := runSpec{key: "good", machine: config.Config2(), factory: BaselineFactory}
	bad := runSpec{
		key:     "bad",
		machine: config.Config2(),
		factory: func(m config.Machine, em *energy.Model) (lsq.Policy, error) {
			return lsq.NewCAM(lsq.CAMConfig{LQSize: -1}, em)
		},
	}
	out, err := s.runMatrix([]runSpec{good, bad})
	if err == nil {
		t.Fatal("erroring factory produced no error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a *RunError: %v", err)
	}
	if re.Key != "bad" || re.Benchmark != "gzip" {
		t.Errorf("error not labeled with spec key + benchmark: %+v", re)
	}
	var ce *lsq.ConfigError
	if !errors.As(err, &ce) {
		t.Errorf("policy configuration cause lost: %v", err)
	}
	if out["good"][0] == nil {
		t.Error("sibling result discarded")
	}
	if out["bad"][0] != nil {
		t.Error("failed run produced a result")
	}
}

// TestSuiteSoundness: an oracle-enabled suite verifies every commit and
// reports full coverage in the result stats.
func TestSuiteSoundness(t *testing.T) {
	s := mustSuite(Options{Insts: 3000, Benchmarks: []string{"gzip"}, Soundness: true})
	rs := s.Results(keyGlobal("config2"))
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0] == nil {
		t.Fatal("missing result")
	}
	if got := rs[0].Stats.Get("oracle_checked_insts"); got != float64(rs[0].Insts) {
		t.Errorf("oracle checked %v of %d commits", got, rs[0].Insts)
	}
}

// TestSoundnessBypassesCache: oracle runs must simulate even when a warm
// cache entry exists — a cached result would skip the verification.
func TestSoundnessBypassesCache(t *testing.T) {
	dir := t.TempDir()
	warm := mustSuite(Options{Insts: 2000, Benchmarks: []string{"gzip"}, Cache: openCache(t, dir)})
	warm.Results(keyBase("config2"))
	if warm.Simulated() != 1 {
		t.Fatalf("warmup simulated %d runs, want 1", warm.Simulated())
	}

	s := mustSuite(Options{Insts: 2000, Benchmarks: []string{"gzip"}, Cache: openCache(t, dir), Soundness: true})
	s.Results(keyBase("config2"))
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if s.Simulated() != 1 {
		t.Errorf("soundness run hit the cache (simulated %d, want 1)", s.Simulated())
	}
	if hits, _, _ := s.CacheStats(); hits != 0 {
		t.Errorf("soundness run recorded %d cache hits, want 0", hits)
	}
}

// TestFaultsKeyedSeparately: faulted runs perturb timing, so they must
// never hit entries cached by clean runs — and must hit their own.
func TestFaultsKeyedSeparately(t *testing.T) {
	dir := t.TempDir()
	clean := mustSuite(Options{Insts: 2000, Benchmarks: []string{"gzip"}, Cache: openCache(t, dir)})
	clean.Results(keyBase("config2"))

	faults := soundness.FaultSpec{StoreDelay: 20, StoreDelayEvery: 5}
	a := mustSuite(Options{Insts: 2000, Benchmarks: []string{"gzip"}, Cache: openCache(t, dir), Faults: faults})
	ra := a.Results(keyBase("config2"))
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if a.Simulated() != 1 {
		t.Fatalf("faulted run reused a clean cache entry (simulated %d, want 1)", a.Simulated())
	}
	if ra[0].Stats.Get("faults_injected") == 0 {
		t.Error("fault campaign inert")
	}

	b := mustSuite(Options{Insts: 2000, Benchmarks: []string{"gzip"}, Cache: openCache(t, dir), Faults: faults})
	rb := b.Results(keyBase("config2"))
	if b.Simulated() != 0 {
		t.Errorf("identical faulted run missed its own cache entry (simulated %d)", b.Simulated())
	}
	if rb[0] == nil || rb[0].Cycles != ra[0].Cycles {
		t.Error("faulted cache entry differs from the simulated run")
	}
}

// TestSuiteFaultsWithOracle: the full experiments path stays sound under
// an adversarial fault campaign — the oracle verifies every commit across
// baseline and DMDC cells.
func TestSuiteFaultsWithOracle(t *testing.T) {
	faults, err := soundness.ParseFaultSpec("invburst=4@100,storedelay=30@5,spurious=101")
	if err != nil {
		t.Fatal(err)
	}
	s := mustSuite(Options{
		Insts:      3000,
		Benchmarks: []string{"gzip"},
		Soundness:  true,
		Faults:     faults,
	})
	for _, key := range []string{keyBase("config2"), keyGlobal("config2")} {
		rs := s.Results(key)
		if len(rs) != 1 || rs[0] == nil {
			t.Fatalf("%s: missing result", key)
		}
		if rs[0].Stats.Get("faults_injected") == 0 {
			t.Errorf("%s: fault campaign inert", key)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("fault campaign broke soundness: %v", err)
	}
}

// TestOptionsRejectBadFaults: normalization validates the fault spec.
func TestOptionsRejectBadFaults(t *testing.T) {
	_, err := NewSuite(Options{Faults: soundness.FaultSpec{SpuriousEvery: 1}})
	if err == nil {
		t.Fatal("livelocking fault spec accepted")
	}
}
