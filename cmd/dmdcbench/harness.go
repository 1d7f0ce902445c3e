package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"dmdc/internal/core"
)

// sizes scales every workload. defaultSizes is what BENCHMARK.json runs
// and what testdata/digests.json pins; the smoke test passes smaller ones.
type sizes struct {
	CellInsts   uint64 // cell-detail: committed instructions per cell
	WindowSpan  uint64 // cell-detail: a seed picks each cell's stream offset below this
	OracleInsts uint64 // cell-detail: instructions checked by the lockstep oracle per cell

	MatrixInsts uint64 // paper-matrix: instructions per matrix cell
	WarmPasses  int    // paper-matrix: warm report passes after each cold pass

	JobInsts   uint64 // service-fleet: instructions per job
	WarmRounds int    // service-fleet: warm rounds over the job set per pass

	SampledInsts  uint64 // sampled-long: logical instructions per run
	Intervals     int    // sampled-long: detailed intervals per run
	IntervalInsts uint64 // sampled-long: instructions per detailed interval

	SetupReps int // set-ups per run; setup_s is their median

	MicroReps  int           // repetitions of each microbenchmark
	MicroRep   time.Duration // minimum duration of one repetition
	MicroCalls int           // calls per latency microbenchmark (cache, journal, service)
	LSQInsts   uint64        // length of the recorded LSQ call streams
}

var defaultSizes = sizes{
	CellInsts:     120_000,
	WindowSpan:    500_000,
	OracleInsts:   50_000,
	MatrixInsts:   5_000,
	WarmPasses:    5,
	JobInsts:      50_000,
	WarmRounds:    5,
	SampledInsts:  10_000_000,
	Intervals:     40,
	IntervalInsts: 10_000,
	SetupReps:     11,
	MicroReps:     5,
	MicroRep:      100 * time.Millisecond,
	MicroCalls:    200,
	LSQInsts:      50_000,
}

// env is what a workload's set-up sees.
type env struct {
	sz   sizes
	seed int64
	dir  string // scratch directory, removed when the run ends
}

// workload is one benchmark workload: set-up builds an instance whose
// passes are repeated for the measured time.
type workload struct {
	name string
	// seeded marks outputs that depend on the seed; the committed digests
	// then cover seed 0 only.
	seeded bool
	// cores is how many cores the timed work keeps busy, and so how many
	// the speed calibration measures.
	cores int
	setup func(ctx context.Context, e env) (instance, error)
}

// instance is one set-up workload. pass runs one round of its operations
// and reports them into t; an error aborts the run and means the harness,
// not the program under test, failed. close releases what set-up acquired.
type instance interface {
	pass(ctx context.Context, t *tally) error
	close()
}

// verifier is implemented by instances with an extra correctness check
// that runs once, after the measured phases.
type verifier interface {
	verify(ctx context.Context, t *tally)
}

var workloads = []workload{
	{name: "cell-detail", seeded: true, cores: 1, setup: setupCells},
	{name: "paper-matrix", cores: 2, setup: setupMatrix},
	{name: "service-fleet", cores: 2, setup: setupService},
	{name: "sampled-long", cores: 1, setup: setupSampled},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// tally collects what the passes of one phase did. Its methods are safe
// for concurrent use: the matrix and service workloads report from several
// goroutines.
type tally struct {
	tr *tracer // nil in an untraced phase

	mu        sync.Mutex
	ops       []float64 // latency of each timed operation, ms at the reference speed
	raw       []float64 // the same latencies as measured
	attempted int
	failed    int
	insts     uint64        // instructions simulated, detailed or functional
	simWall   time.Duration // time over which insts were simulated, at the reference speed
	digests   map[string]string
	st        resultStats
	details   map[string][]float64
	errs      []string
	alloc     uint64 // bytes allocated during the phase
}

func newTally(tr *tracer) *tally {
	return &tally{tr: tr, digests: map[string]string{}, details: map[string][]float64{}}
}

// op records one successful timed operation.
func (t *tally) op(d time.Duration) {
	t.mu.Lock()
	t.ops = append(t.ops, float64(d.Nanoseconds())/1e6)
	t.attempted++
	t.mu.Unlock()
}

// ok records one successful operation that is checked but not timed.
func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// maxErrs bounds the error messages kept per phase; the count is exact.
const maxErrs = 20

// fail records one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.errs) < maxErrs {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// check records the digest of v under name. A value that differs from one
// recorded earlier under the same name — a repeat that did not reproduce —
// counts as a failed operation.
func (t *tally) check(name string, v any) {
	h, err := digest(v)
	if err != nil {
		t.fail("digest %s: %v", name, err)
		return
	}
	t.mu.Lock()
	prev, seen := t.digests[name]
	if !seen {
		t.digests[name] = h
	}
	t.mu.Unlock()
	if seen && prev != h {
		t.fail("%s: repeat produced digest %s, first run %s", name, short(h), short(prev))
	}
}

// simulated adds n instructions simulated over wall time d.
func (t *tally) simulated(n uint64, d time.Duration) {
	t.mu.Lock()
	t.insts += n
	t.simWall += d
	t.mu.Unlock()
}

// result adds a simulation result's counters to the per-layer statistics.
func (t *tally) result(r *core.Result) {
	t.mu.Lock()
	t.st.add(r)
	t.mu.Unlock()
}

// detail records a workload-specific sample; details are written to the
// -out record, not gated.
func (t *tally) detail(name string, v float64) {
	t.mu.Lock()
	t.details[name] = append(t.details[name], v)
	t.mu.Unlock()
}

// rescale converts the times recorded since ops[from] and simWall
// simFrom to the reference speed (see calib.go).
func (t *tally) rescale(from int, simFrom time.Duration, f float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := from; i < len(t.ops); i++ {
		t.raw = append(t.raw, t.ops[i])
		t.ops[i] *= f
	}
	t.simWall = simFrom + time.Duration(float64(t.simWall-simFrom)*f)
	t.details["speed_factor"] = append(t.details["speed_factor"], f)
}

// merge folds another phase's operation counts and errors into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, e)
		}
	}
}

// resultStats sums the counters behind the deterministic per-layer ratios.
type resultStats struct {
	committed, wrongPath     float64
	l1dAccesses, l1dMisses   float64
	bpLookups, bpMispredicts float64
	replays, trueReplays     float64
}

func (s *resultStats) add(r *core.Result) {
	g := r.Stats.Get
	s.committed += g("committed")
	s.wrongPath += g("wrong_path_fetched")
	s.l1dAccesses += g("l1d_accesses")
	s.l1dMisses += g("l1d_misses")
	s.bpLookups += g("bpred_lookups")
	s.bpMispredicts += g("bpred_mispredicts")
	s.replays += g("core_replays_total")
	s.trueReplays += g("core_replay_true_violation")
}

// digest is the hex SHA-256 of a string's bytes or of a value's JSON
// encoding (canonical for the program's result types: struct fields in
// declaration order, stats in insertion order).
func digest(v any) (string, error) {
	var b []byte
	switch x := v.(type) {
	case string:
		b = []byte(x)
	case []byte:
		b = x
	default:
		var err error
		if b, err = json.Marshal(v); err != nil {
			return "", err
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// measure repeats passes of inst until d has elapsed, at least once,
// calibrating the machine's speed around every pass.
func measure(ctx context.Context, inst instance, cores int, tr *tracer, d time.Duration) (*tally, error) {
	t := newTally(tr)
	var m0, m1 runtime.MemStats
	before := calibrate(cores)
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		from, simFrom := len(t.ops), t.simWall
		if err := inst.pass(ctx, t); err != nil {
			return nil, err
		}
		after := calibrate(cores)
		t.rescale(from, simFrom, speedFactor(before, after))
		before = after
	}
	runtime.ReadMemStats(&m1)
	t.alloc = m1.TotalAlloc - m0.TotalAlloc
	t.details["raw_op_ms"] = t.raw
	if len(t.ops) == 0 || t.simWall <= 0 {
		return nil, fmt.Errorf("phase completed no timed operation (%d failed)", t.failed)
	}
	return t, nil
}

// runOpts configures one benchmark run.
type runOpts struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string // spans and CPU profile of a traced run
	workDir  string // parent of the run's scratch directory
	sz       sizes
	// committed holds the pinned digests of this workload; nil skips the
	// comparison (non-default sizes, or a seeded workload at seed ≠ 0).
	committed map[string]string
}

// record is one run's outcome: the stdout result plus what -out keeps.
type record struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Trace       bool                 `json:"trace"`
	Seconds     float64              `json:"seconds"`
	Fingerprint fingerprint          `json:"fingerprint"`
	Correct     bool                 `json:"correct"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Metrics     map[string]metric    `json:"metrics"`
	Digests     map[string]string    `json:"digests"`
	Details     map[string]quartiles `json:"details,omitempty"`
	Errors      []string             `json:"errors,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type quartiles struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// runWorkload sets w up SetupReps times, measures it untraced and, with
// o.trace, again traced, and returns the run's record. An error means the
// harness could not complete the run; failures of the program under test
// are counted in the record instead.
func runWorkload(ctx context.Context, w workload, o runOpts) (*record, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := env{sz: o.sz, seed: o.seed, dir: dir}

	var inst instance
	setups := make([]float64, 0, o.sz.SetupReps)
	before := calibrate(w.cores)
	for i := 0; i < max(o.sz.SetupReps, 1); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if inst, err = w.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	speed := speedFactor(before, calibrate(w.cores))
	for i := range setups {
		setups[i] *= speed
	}
	defer inst.close()

	base, err := measure(ctx, inst, w.cores, nil, o.seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := &record{
		Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds.Seconds(),
		Fingerprint: machineFingerprint(), Digests: base.digests,
	}
	all := newTally(nil)
	all.merge(base)

	if o.trace {
		metrics, err := tracedRun(ctx, w, inst, base, all, o)
		if err != nil {
			return nil, err
		}
		rec.Metrics = metrics
	} else {
		rec.Metrics = endToEnd(setups, base)
	}

	if v, ok := inst.(verifier); ok {
		vt := newTally(nil)
		v.verify(ctx, vt)
		all.merge(vt)
	}
	if o.committed != nil {
		all.merge(checkCommitted(base.digests, o.committed))
	}
	rec.Attempted, rec.Failed, rec.Errors = all.attempted, all.failed, all.errs
	rec.Correct = all.failed == 0 && all.attempted > 0
	rec.Details = map[string]quartiles{}
	for name, vs := range base.details {
		rec.Details[name] = quartilesOf(vs)
	}
	return rec, nil
}

// tracedRun measures inst a second time with spans and a CPU profile on,
// runs the microbenchmarks, and returns the per-layer metrics.
func tracedRun(ctx context.Context, w workload, inst instance, base, all *tally, o runOpts) (map[string]metric, error) {
	name := w.name
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(o.traceDir, name+".pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	tr := newTracer(name)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	traced, err := measure(ctx, inst, w.cores, tr, o.seconds)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", name, err)
	}
	all.merge(traced)
	// Tracing observes; it must not change a single output.
	for k, h := range traced.digests {
		if b, ok := base.digests[k]; ok && b != h {
			all.fail("%s: traced digest %s differs from untraced %s", k, short(h), short(b))
		}
	}
	if err := tr.write(filepath.Join(o.traceDir, name+".spans.json")); err != nil {
		return nil, err
	}

	// The microbenchmarks run on one goroutine.
	mt := newTally(nil)
	before := calibrate(1)
	metrics, err := runMicro(ctx, o, mt)
	if err != nil {
		return nil, fmt.Errorf("microbenchmarks: %w", err)
	}
	speed := speedFactor(before, calibrate(1))
	for k, m := range metrics {
		switch m.Unit {
		case "ns", "us", "ms":
			metrics[k] = metric{m.Value * speed, m.Unit}
		case "Minst/s":
			metrics[k] = metric{m.Value / speed, m.Unit}
		}
	}
	all.merge(mt)
	shares, err := layerShares(profPath)
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	for layer, v := range shares {
		metrics[layer+".cpu_share"] = metric{v, "%"}
	}
	for k, v := range statMetrics(base.st) {
		metrics[k] = v
	}
	p50 := func(t *tally) float64 { return quantile(sorted(t.ops), 0.5) }
	metrics["tracing.overhead_pct"] = metric{(p50(traced)/p50(base) - 1) * 100, "%"}
	return metrics, nil
}

// endToEnd computes the gated metrics of an untraced phase.
func endToEnd(setups []float64, t *tally) map[string]metric {
	ops := sorted(t.ops)
	return map[string]metric{
		"setup_s":          {quantile(sorted(setups), 0.5), "s"},
		"op_p50_ms":        {quantile(ops, 0.5), "ms"},
		"op_p90_ms":        {quantile(ops, 0.9), "ms"},
		"sim_minsts_per_s": {float64(t.insts) / t.simWall.Seconds() / 1e6, "Minst/s"},
		"alloc_mb_per_op":  {float64(t.alloc) / 1e6 / float64(len(ops)), "MB"},
	}
}

// statMetrics derives the deterministic per-layer ratios from the summed
// result counters.
func statMetrics(s resultStats) map[string]metric {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	return map[string]metric{
		"trace.wrongpath_per_committed": {ratio(s.wrongPath, s.committed), "ratio"},
		"cache.l1d_miss_rate":           {ratio(s.l1dMisses, s.l1dAccesses), "ratio"},
		"bpred.mispredict_rate":         {ratio(s.bpMispredicts, s.bpLookups), "ratio"},
		"lsq.false_replay_ratio":        {ratio(s.replays-s.trueReplays, s.replays), "ratio"},
	}
}

// checkCommitted compares a phase's digests with the pinned ones; every
// missing, extra or differing digest is one failed operation.
func checkCommitted(got, want map[string]string) *tally {
	t := newTally(nil)
	for _, name := range sortedKeys(want) {
		switch h, ok := got[name]; {
		case !ok:
			t.fail("%s: no output to compare with the committed digest", name)
		case h != want[name]:
			t.fail("%s: digest %s, committed %s", name, short(h), short(want[name]))
		default:
			t.ok()
		}
	}
	for _, name := range sortedKeys(got) {
		if _, ok := want[name]; !ok {
			t.fail("%s: output has no committed digest", name)
		}
	}
	return t
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sorted(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// quantile interpolates the p-quantile of sorted data the way Python's
// statistics.quantiles does with its default "exclusive" method, so the
// spreads reported here match the ones computed from the result lines.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	h := float64(n+1) * p
	switch {
	case h <= 1:
		return s[0]
	case h >= float64(n):
		return s[n-1]
	}
	i := int(h)
	return s[i-1] + (h-float64(i))*(s[i]-s[i-1])
}

func quartilesOf(vs []float64) quartiles {
	s := sorted(vs)
	return quartiles{N: len(s), Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}
