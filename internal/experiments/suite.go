package experiments

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/lsq"
	"dmdc/internal/resultcache"
	"dmdc/internal/telemetry"
)

// Monitor sweep parameters for Figures 2 and 3.
var (
	// YLACounts are the register counts swept in Figure 2.
	YLACounts = []int{1, 2, 4, 8, 16}
	// BloomSizes are the filter sizes swept in Figure 3.
	BloomSizes = []int{32, 64, 128, 256, 512, 1024}
	// QueueSizes are the checking-queue sizes swept for E13.
	QueueSizes = []int{4, 8, 16, 32}
	// InvRates are Table 6's external invalidation rates per 1000 cycles.
	InvRates = []float64{0, 1, 10, 100}
)

// Run keys for the simulation matrix.
const (
	keyMonitored = "monitored-baseline" // config2 baseline + passive monitors
	keyYLA       = "yla-config2"
)

func keyBase(cfg string) string   { return "baseline-" + cfg }
func keyGlobal(cfg string) string { return "dmdc-global-" + cfg }
func keyLocal(cfg string) string  { return "dmdc-local-" + cfg }
func keyInv(rate float64) string  { return fmt.Sprintf("dmdc-inv%g", rate) }
func keyNoSafe() string           { return "dmdc-nosafe" }
func keyQueue(n int) string       { return fmt.Sprintf("dmdc-queue%d", n) }

// Suite lazily runs the simulation matrix: each experiment method triggers
// only the runs it needs, and results are shared between experiments.
// A Suite is safe for concurrent use; overlapping requests for the same
// run key are single-flighted so each spec simulates at most once.
type Suite struct {
	opts      Options
	cache     resultcache.Store   // nil when neither Cache nor CacheDir is set
	telemetry *telemetry.Registry // nil when Options.Telemetry is nil

	simulated atomic.Uint64 // simulations actually executed (cache hits excluded)

	mu       sync.Mutex
	results  map[string][]*core.Result
	inflight map[string]*inflightRun
	err      error // sticky join of every runner error so far
}

// inflightRun tracks one key being computed; waiters block on done.
type inflightRun struct {
	done chan struct{}
}

// NewSuite builds a suite; runs happen on demand. It returns an error when
// the benchmark list names an unknown benchmark or the result cache
// directory cannot be opened.
func NewSuite(o Options) (*Suite, error) {
	no, err := o.normalized()
	if err != nil {
		return nil, err
	}
	s := &Suite{
		opts:     no,
		results:  make(map[string][]*core.Result),
		inflight: make(map[string]*inflightRun),
	}
	switch {
	case no.Cache != nil:
		// An injected store wins: the caller controls tiering (disk,
		// fleet-tiered, test fake) and its lifecycle.
		s.cache = no.Cache
	case no.CacheDir != "":
		c, err := resultcache.Open(no.CacheDir)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	if no.Telemetry != nil {
		s.telemetry = telemetry.NewRegistry()
	}
	return s, nil
}

// Options returns the normalized options in effect.
func (s *Suite) Options() Options { return s.opts }

// Err returns every runner error accumulated so far (joined), or nil.
// Experiment methods render whatever results exist; callers that need
// hard guarantees check Err after generating their artifacts.
func (s *Suite) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Simulated returns the number of simulations actually executed by this
// suite — cache hits are excluded, so a fully warm run reports zero.
func (s *Suite) Simulated() uint64 { return s.simulated.Load() }

// CacheStats returns the result-store hit/miss/write-error counters, or
// zeros when no cache is configured.
func (s *Suite) CacheStats() (hits, misses, writeErrors uint64) {
	if s.cache == nil {
		return 0, 0, 0
	}
	st := s.cache.Stats()
	return st.Hits, st.Misses, st.WriteErrors
}

// specFor materializes the runSpec for a key the suite itself produced;
// an unknown key is a programming error, not an input error.
func (s *Suite) specFor(key string) runSpec {
	sp, ok := resolveSpec(key)
	if !ok {
		panic("experiments: unknown run key " + key)
	}
	return sp
}

// runSpecs is every named run spec, keyed by run key and built once at
// package init. Every key names code, not data — the policy factory,
// monitor set, and injection options are reconstructed from the key
// alone, which is what lets a remote backend execute matrix cells shipped
// to it as (key, benchmark) pairs.
var runSpecs = buildRunSpecs()

func buildRunSpecs() map[string]runSpec {
	c2 := config.Config2()
	specs := make(map[string]runSpec)
	add := func(sp runSpec) {
		if _, dup := specs[sp.key]; dup {
			panic("experiments: duplicate run key " + sp.key)
		}
		specs[sp.key] = sp
	}
	for _, m := range config.All() {
		add(runSpec{key: keyBase(m.Name), machine: m, factory: BaselineFactory})
		add(runSpec{key: keyGlobal(m.Name), machine: m, factory: DMDCGlobalFactory})
		add(runSpec{key: keyLocal(m.Name), machine: m, factory: DMDCLocalFactory})
	}
	add(runSpec{key: keyMonitored, machine: c2, factory: BaselineFactory, monitors: allMonitors})
	add(runSpec{key: keyClampMonitors, machine: c2, factory: BaselineFactory, monitors: clampAblationMonitors})
	add(runSpec{key: keyYLA, machine: c2, factory: YLAFactory})
	add(runSpec{key: keyNoSafe(), machine: c2, factory: DMDCNoSafeLoadsFactory})
	add(runSpec{key: keySQFilter, machine: c2, factory: BaselineFactory, opts: []core.Option{core.WithSQFilter()}})
	add(runSpec{key: keyAgeTable, machine: c2, factory: AgeTableFactory})
	add(runSpec{key: keyValueBased, machine: c2, factory: ValueBasedFactory})
	add(runSpec{key: keyValueSVW, machine: c2, factory: ValueSVWFactory})
	for _, rate := range InvRates {
		add(runSpec{key: keyInv(rate), machine: c2, factory: DMDCGlobalFactory,
			opts: []core.Option{core.WithInvalidations(rate)}})
	}
	for _, n := range QueueSizes {
		add(runSpec{key: keyQueue(n), machine: c2, factory: DMDCQueueFactory(n)})
	}
	for _, n := range TableSweepSizes {
		add(runSpec{key: keyTableSize(n), machine: c2, factory: DMDCTableFactory(n)})
	}
	for _, n := range YLASweepCounts {
		add(runSpec{key: keyYLACount(n), machine: c2, factory: DMDCYLAFactory(n)})
	}
	return specs
}

// resolveSpec looks a run key up in the run-spec table.
func resolveSpec(key string) (runSpec, bool) {
	sp, ok := runSpecs[key]
	return sp, ok
}

// RunKeys lists every run key, sorted: the keys WriteCSV and wire jobs
// accept.
func RunKeys() []string {
	keys := make([]string, 0, len(runSpecs))
	for k := range runSpecs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// allMonitors builds the passive monitor set for the instrumented baseline.
func allMonitors() []lsq.Monitor {
	var ms []lsq.Monitor
	for _, n := range YLACounts {
		ms = append(ms, lsq.NewYLAMonitor(n, lsq.QuadWordShift))
		ms = append(ms, lsq.NewYLAMonitor(n, lsq.CacheLineShift))
	}
	for _, sz := range BloomSizes {
		ms = append(ms, lsq.NewBloomMonitor(sz))
	}
	ms = append(ms, lsq.NewStoreAgeMonitor())
	return ms
}

// get returns results for the given keys, running any that are missing.
// Each key is single-flighted: when several goroutines request overlapping
// keys, exactly one claims each missing key and runs it while the others
// wait on its completion, so no spec ever simulates twice.
func (s *Suite) get(keys ...string) map[string][]*core.Result {
	s.mu.Lock()
	var mine []runSpec
	var wait []*inflightRun
	for _, k := range keys {
		if _, ok := s.results[k]; ok {
			continue
		}
		if fl, ok := s.inflight[k]; ok {
			wait = append(wait, fl)
			continue
		}
		sp := s.specFor(k)
		s.inflight[k] = &inflightRun{done: make(chan struct{})}
		mine = append(mine, sp)
	}
	s.mu.Unlock()

	if len(mine) > 0 {
		fresh, err := s.runMatrix(mine)
		s.mu.Lock()
		for k, v := range fresh {
			s.results[k] = v
		}
		if err != nil {
			s.err = errors.Join(s.err, err)
		}
		for _, sp := range mine {
			if fl, ok := s.inflight[sp.key]; ok {
				close(fl.done)
				delete(s.inflight, sp.key)
			}
		}
		s.mu.Unlock()
	}
	for _, fl := range wait {
		<-fl.done
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]*core.Result, len(keys))
	for _, k := range keys {
		out[k] = s.results[k]
	}
	return out
}

// pairByBenchmark zips two result sets (same benchmark ordering).
type pair struct {
	base *core.Result
	test *core.Result
}

func zip(base, test []*core.Result) []pair {
	out := make([]pair, 0, len(base))
	for i := range base {
		if base[i] == nil || test[i] == nil {
			continue
		}
		out = append(out, pair{base: base[i], test: test[i]})
	}
	return out
}

// slowdown returns test/base execution-time ratio minus one.
func (p pair) slowdown() float64 {
	return float64(p.test.Cycles)/float64(p.base.Cycles) - 1
}

// lqSavings returns the fraction of LQ-functionality energy saved.
func (p pair) lqSavings() float64 {
	return savings(p.base.Energy.LQEnergy(), p.test.Energy.LQEnergy())
}

// totalSavings returns the fraction of processor-wide energy saved.
func (p pair) totalSavings() float64 {
	return savings(p.base.Energy.Total(), p.test.Energy.Total())
}

func savings(base, test float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - test) / base
}
