// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). A Suite runs the full matrix of simulations —
// baseline / YLA / DMDC (global, local, checking-queue) across the three
// machine configurations and all 26 synthetic benchmarks — and exposes one
// method per paper artifact that formats the corresponding result.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/energy"
	"dmdc/internal/lsq"
	"dmdc/internal/resultcache"
	"dmdc/internal/soundness"
	"dmdc/internal/telemetry"
	"dmdc/internal/trace"
)

// Options scope a suite run.
type Options struct {
	// Insts is the simulated instruction count per benchmark (the paper
	// uses 100M-instruction SimPoints; the shapes stabilize far earlier).
	Insts uint64
	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS, or,
	// with a Backend, one worker per cell, so that the backend's own
	// in-flight windows set the bound.
	Parallelism int
	// Benchmarks restricts the benchmark set; empty means all 26.
	// Names are validated (and whitespace-trimmed) by NewSuite.
	Benchmarks []string
	// Progress, when non-nil, receives one line per completed run with
	// completed/total counts, cache-hit status, and an ETA.
	Progress func(string)
	// Cache, when non-nil, is the persistent result store the suite reads
	// and writes every cacheable cell through (see JobSpec.Cacheable) — a
	// disk *resultcache.Cache, a fleet-aware *resultcache.Tiered, or a
	// test fake. The caller opens it and closes it once the suite is done.
	// Deterministic simulation makes cached results exact, not
	// approximate.
	Cache resultcache.Store
	// Soundness attaches the lockstep architectural oracle to every run:
	// each commit is checked against an independent in-order model and any
	// divergence fails the cell with a *soundness.SoundnessError. Oracle
	// runs always simulate (the cache is bypassed) — a cached result would
	// skip exactly the verification being asked for.
	Soundness bool
	// Faults injects the given deterministic fault campaign into every
	// run (see soundness.FaultSpec). Faults perturb timing, so faulted
	// results are cached under a key that includes the spec.
	Faults soundness.FaultSpec
	// WatchdogCycles overrides the forward-progress budget (cycles without
	// a commit before a run fails with a state dump); 0 keeps the core
	// default.
	WatchdogCycles uint64
	// Telemetry, when non-nil, attaches a sampling engine to every
	// *simulated* run (cache hits carry no samples): per-job time series
	// and stall attribution land in the suite Registry (see
	// Suite.Telemetry) keyed "<run key>/<benchmark>", from which a caller
	// exports them (telemetry.Snapshot.WriteFiles). Zero config fields
	// take the telemetry defaults.
	Telemetry *telemetry.Config
	// Context, when non-nil, scopes every matrix run: cancel it and
	// in-flight simulations stop on the next check cadence with
	// context.Canceled (labeled per cell in Suite.Err), queued cells are
	// skipped. Nil means context.Background().
	Context context.Context
	// Backend, when non-nil, executes matrix cells instead of the
	// in-process simulator — e.g. a dserve.Dispatcher sharding the matrix
	// across dmdcd servers. Deterministic simulation makes backend results
	// byte-identical to local ones, so artifacts are unaffected. The
	// result cache still operates locally (hits skip the backend; backend
	// results are written back). Mutually exclusive with Telemetry:
	// per-job samplers live in the executing process — fetch remote series
	// from dmdcd's /v1/telemetry endpoint instead.
	Backend Backend
}

// normalized fills defaults and validates the benchmark list: names are
// whitespace-trimmed, and empty or unknown names are rejected with an
// error listing the valid set.
func (o Options) normalized() (Options, error) {
	if o.Insts == 0 {
		o.Insts = 1_000_000
	}
	if o.Parallelism <= 0 && o.Backend == nil {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if err := o.Faults.Validate(); err != nil {
		return o, err
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.Backend != nil && o.Telemetry != nil {
		return o, fmt.Errorf("experiments: telemetry samplers require in-process execution; with a Backend, read per-job series from the backend's /v1/telemetry endpoint instead")
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = trace.Names()
		return o, nil
	}
	cleaned := make([]string, 0, len(o.Benchmarks))
	for _, b := range o.Benchmarks {
		b = strings.TrimSpace(b)
		if b == "" {
			return o, fmt.Errorf("empty benchmark name in list; valid benchmarks: %s",
				strings.Join(trace.Names(), ", "))
		}
		if _, err := trace.ByName(b); err != nil {
			return o, fmt.Errorf("%w; valid benchmarks: %s",
				err, strings.Join(trace.Names(), ", "))
		}
		cleaned = append(cleaned, b)
	}
	o.Benchmarks = cleaned
	return o, nil
}

// ParseBenchmarks splits a comma-separated benchmark list as given on a
// command line: elements are whitespace-trimmed, and empty or unknown
// names produce an error listing the valid benchmark set.
func ParseBenchmarks(s string) ([]string, error) {
	o, err := Options{Benchmarks: strings.Split(s, ",")}.normalized()
	if err != nil {
		return nil, err
	}
	return o.Benchmarks, nil
}

// PolicyFactory builds a policy wired to an energy model, given the
// machine configuration. A configuration error (e.g. a sweep point
// outside a policy's valid range) is reported, not panicked, so one bad
// cell never takes down the matrix.
type PolicyFactory func(m config.Machine, em *energy.Model) (lsq.Policy, error)

// BaselineFactory is the conventional CAM load queue.
func BaselineFactory(m config.Machine, em *energy.Model) (lsq.Policy, error) {
	return lsq.NewCAM(lsq.CAMConfig{LQSize: m.LQSize}, em)
}

// YLAFactory is the CAM load queue with 8-register YLA filtering (E3).
func YLAFactory(m config.Machine, em *energy.Model) (lsq.Policy, error) {
	return lsq.NewCAM(lsq.CAMConfig{LQSize: m.LQSize, Filter: lsq.FilterYLA, YLARegs: 8}, em)
}

// DMDCGlobalFactory is the paper's primary design.
func DMDCGlobalFactory(m config.Machine, em *energy.Model) (lsq.Policy, error) {
	return lsq.NewDMDC(lsq.DefaultDMDCConfig(m.CheckTable, m.ROBSize), em)
}

// DMDCLocalFactory is the local-window variant (Section 4.4).
func DMDCLocalFactory(m config.Machine, em *energy.Model) (lsq.Policy, error) {
	cfg := lsq.DefaultDMDCConfig(m.CheckTable, m.ROBSize)
	cfg.Local = true
	return lsq.NewDMDC(cfg, em)
}

// DMDCNoSafeLoadsFactory disables the safe-load bypass (E12 ablation).
func DMDCNoSafeLoadsFactory(m config.Machine, em *energy.Model) (lsq.Policy, error) {
	cfg := lsq.DefaultDMDCConfig(m.CheckTable, m.ROBSize)
	cfg.SafeLoads = false
	return lsq.NewDMDC(cfg, em)
}

// DMDCQueueFactory replaces the hash table with an N-entry associative
// checking queue (E13).
func DMDCQueueFactory(n int) PolicyFactory {
	return func(m config.Machine, em *energy.Model) (lsq.Policy, error) {
		cfg := lsq.DefaultDMDCConfig(m.CheckTable, m.ROBSize)
		cfg.TableSize = 0
		cfg.QueueSize = n
		return lsq.NewDMDC(cfg, em)
	}
}

// runSpec names one simulation in the matrix.
type runSpec struct {
	key     string
	machine config.Machine
	factory PolicyFactory
	// monitors builds a fresh passive monitor set for each run; nil
	// attaches none.
	monitors func() []lsq.Monitor
	// opts are the spec's injection options. The run-spec table shares
	// them across runs, so copy the slice before appending to it.
	opts []core.Option
}

// RunError labels the failure of one simulation in the matrix with the
// run-spec key and benchmark it belonged to.
type RunError struct {
	Key       string
	Benchmark string
	Err       error
}

// Error renders the labeled failure.
func (e *RunError) Error() string {
	return fmt.Sprintf("run %s/%s: %v", e.Key, e.Benchmark, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *RunError) Unwrap() error { return e.Err }

// job is one (spec, benchmark) cell of the matrix. It points at its spec,
// a few hundred bytes with the machine, which the matrix's cells share.
type job struct {
	spec  *runSpec
	bench string
	slot  int
}

// runMatrix executes each spec over every benchmark on a bounded worker
// pool and returns results keyed by spec key, in benchmark order. Failed
// cells stay nil in the result slices; their labeled errors are joined
// into the returned error, so one bad run never takes down the process or
// discards its siblings' work.
//
// In process, the cells of a benchmark share one recording of its
// committed path (see tapeSet), which lives only while the benchmark has
// queued cells.
func (s *Suite) runMatrix(specs []runSpec) (map[string][]*core.Result, error) {
	o := s.opts
	jobs := matrixJobs(specs, o.Benchmarks)
	out := make(map[string][]*core.Result, len(specs))
	ahead := 0
	for _, sp := range specs {
		out[sp.key] = make([]*core.Result, len(o.Benchmarks))
		ahead = max(ahead, core.FetchAhead(sp.machine))
	}
	var tapes *tapeSet
	if o.Backend == nil {
		tapes = newTapeSet(int(o.Insts), ahead, o.Benchmarks, len(specs))
	}

	workers := o.Parallelism
	if workers <= 0 || workers > len(jobs) {
		workers = len(jobs)
	}
	jobCh := make(chan job)
	var (
		mu        sync.Mutex
		errs      []error
		completed int
	)
	total := len(jobs)
	start := time.Now()
	ctx := s.opts.Context
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				var (
					r      *core.Result
					cached bool
					err    error
				)
				if cerr := ctx.Err(); cerr != nil {
					// Canceled: drain the queue, labeling each skipped cell,
					// so Suite.Err reports context.Canceled per cell instead
					// of hanging or silently dropping work.
					err = &RunError{Key: j.spec.key, Benchmark: j.bench, Err: cerr}
				} else {
					r, cached, err = s.runJob(ctx, j.spec, j.bench, tapes)
				}
				tapes.done(j.bench)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					out[j.spec.key][j.slot] = r
				}
				completed++
				done := completed
				mu.Unlock()
				if o.Progress != nil {
					o.Progress(progressLine(done, total, j, cached, err, start))
				}
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	return out, errors.Join(errs...)
}

// matrixJobs queues the cells of specs over benches benchmark-major: all
// of one benchmark's cells, then the next benchmark's, so a benchmark's
// tape is released before most later ones are recorded.
func matrixJobs(specs []runSpec, benches []string) []job {
	jobs := make([]job, 0, len(specs)*len(benches))
	for i, b := range benches {
		for k := range specs {
			jobs = append(jobs, job{spec: &specs[k], bench: b, slot: i})
		}
	}
	return jobs
}

// progressLine formats one completion: "[done/total] status key/bench eta".
func progressLine(done, total int, j job, cached bool, err error, start time.Time) string {
	status := "sim"
	switch {
	case err != nil:
		status = "ERROR"
	case cached:
		status = "hit"
	}
	line := fmt.Sprintf("[%d/%d] %-5s %s/%s", done, total, status, j.spec.key, j.bench)
	if done < total && done > 0 {
		if elapsed := time.Since(start); elapsed > 0 {
			eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
			line += fmt.Sprintf(" eta %s", eta.Round(time.Second))
		}
	}
	return line
}

// runJob runs (or fetches from cache) one cell of the matrix. One JobSpec
// describes the cell: it gives the cache key, and it is the job a Backend
// runs, or executeCell in process with the cell's run spec sp and its
// benchmark's tape from tapes. Every failure mode — a policy configuration
// error, a bad machine config, a soundness divergence, a watchdog trip, or
// a panic anywhere inside the simulator — becomes a labeled *RunError
// rather than crashing the worker pool, so one bad cell never discards its
// siblings' work.
func (s *Suite) runJob(ctx context.Context, sp *runSpec, bench string, tapes *tapeSet) (r *core.Result, cached bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, cached = nil, false
			err = &RunError{Key: sp.key, Benchmark: bench, Err: fmt.Errorf("panic: %v", p)}
		}
	}()
	j := JobSpec{
		Machine:        sp.machine,
		RunKey:         sp.key,
		Benchmark:      bench,
		Insts:          s.opts.Insts,
		Soundness:      s.opts.Soundness,
		Faults:         s.opts.Faults.String(),
		WatchdogCycles: s.opts.WatchdogCycles,
	}
	useCache := s.opts.Cache != nil && j.Cacheable()
	var key string
	if useCache {
		key = j.CacheKey()
		if hit, ok := s.opts.Cache.Get(key); ok {
			return hit, true, nil
		}
	}
	if s.opts.Backend != nil {
		// The backend resolves the run key through the same run-spec
		// table, so its result is byte-identical to the in-process path.
		r, err = s.opts.Backend.Run(ctx, j)
	} else {
		var sampler *telemetry.Sampler
		if s.telemetry != nil {
			// Each job records into its own sampler (no cross-job bleed) and
			// is registered before the run starts so a live endpoint can
			// watch it fill in.
			sampler = telemetry.New(*s.opts.Telemetry)
			s.telemetry.Register(jobKey(sp.key, bench), sampler)
		}
		r, err = executeCell(ctx, sp, j, sampler, tapes.acquire(ctx, bench))
	}
	if err != nil {
		return nil, false, &RunError{Key: sp.key, Benchmark: bench, Err: err}
	}
	s.simulated.Add(1)
	if useCache {
		// Best-effort: a failed write only costs a recompute next time;
		// the cache counts it (WriteErrors) for observability.
		s.opts.Cache.Put(key, r)
	}
	return r, false, nil
}
