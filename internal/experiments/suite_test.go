package experiments

import (
	"sync"
	"testing"
)

// TestSuiteSingleflight hammers one Suite from many goroutines requesting
// overlapping key sets and asserts each spec simulated exactly once:
// Suite.get holds its lock while a matrix runs, so a concurrent caller
// finds its keys done instead of running them again. Run with -race.
func TestSuiteSingleflight(t *testing.T) {
	s := mustSuite(Options{Insts: 2000, Benchmarks: []string{"gzip", "swim"}})
	keys := []string{keyBase("config2"), keyYLA, keyGlobal("config2")}
	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Overlapping subsets: everyone wants the baseline, and the
			// other keys arrive from different goroutines concurrently.
			ks := []string{keys[0], keys[1+g%2]}
			out := s.get(ks...)
			for _, k := range ks {
				rs := out[k]
				if len(rs) != 2 || rs[0] == nil || rs[1] == nil {
					t.Errorf("goroutine %d: incomplete results for %s", g, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	want := uint64(len(keys) * 2) // 3 specs × 2 benchmarks
	if got := s.Simulated(); got != want {
		t.Errorf("simulated %d runs, want exactly %d (duplicate matrix runs)", got, want)
	}
	// Re-requesting everything must not simulate again.
	s.get(keys...)
	if got := s.Simulated(); got != want {
		t.Errorf("re-request simulated %d extra runs", got-want)
	}
}

// TestSuiteResultCache: a second suite sharing the cache directory
// regenerates the same artifact with zero simulations.
func TestSuiteResultCache(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Insts: 2000, Benchmarks: []string{"gzip"}, Cache: openCache(t, dir)}

	cold := mustSuite(opts)
	first := cold.Results(keyGlobal("config2"))
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}
	if cold.Simulated() != 1 {
		t.Fatalf("cold run simulated %d times, want 1", cold.Simulated())
	}
	if hits, misses, werrs := cold.CacheStats(); hits != 0 || misses != 1 || werrs != 0 {
		t.Errorf("cold cache stats: %d hits / %d misses / %d write errors", hits, misses, werrs)
	}

	opts.Cache = openCache(t, dir)
	warm := mustSuite(opts)
	second := warm.Results(keyGlobal("config2"))
	if err := warm.Err(); err != nil {
		t.Fatal(err)
	}
	if warm.Simulated() != 0 {
		t.Errorf("warm run simulated %d times, want 0", warm.Simulated())
	}
	if hits, _, _ := warm.CacheStats(); hits != 1 {
		t.Errorf("warm run recorded %d cache hits, want 1", hits)
	}
	if len(first) != 1 || len(second) != 1 || second[0] == nil {
		t.Fatal("missing results")
	}
	f, g := first[0], second[0]
	if f.Cycles != g.Cycles || f.Insts != g.Insts || f.Benchmark != g.Benchmark ||
		f.Energy.Total() != g.Energy.Total() ||
		f.Stats.Get("core_replays_total") != g.Stats.Get("core_replays_total") {
		t.Errorf("cached result differs from simulated one:\n  sim:   %v\n  cache: %v", f, g)
	}
}

// TestSuiteCacheKeyedByInsts: a different instruction budget must not hit
// entries cached under another budget.
func TestSuiteCacheKeyedByInsts(t *testing.T) {
	dir := t.TempDir()
	a := mustSuite(Options{Insts: 1000, Benchmarks: []string{"gzip"}, Cache: openCache(t, dir)})
	a.Results(keyBase("config2"))
	b := mustSuite(Options{Insts: 2000, Benchmarks: []string{"gzip"}, Cache: openCache(t, dir)})
	b.Results(keyBase("config2"))
	if b.Simulated() != 1 {
		t.Errorf("different insts budget reused cache (simulated %d, want 1)", b.Simulated())
	}
}
