package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmdc/internal/config"
	"dmdc/internal/core"
)

var update = flag.Bool("update", false,
	"rewrite testdata/sampled_error_bounds.json, and with DMDC_CLAIMS=1 the generated blocks of EXPERIMENTS.md")

// TestSampledValidation exercises the spec-level fail-closed rules: a
// sampled run only makes sense for a clean policy-form job with intervals
// that fit the budget.
func TestSampledValidation(t *testing.T) {
	t.Parallel()
	good := SampleSpec{
		Job:       JobSpec{Machine: config.Config1(), Policy: "baseline", Benchmark: "gzip", Insts: 100_000},
		Intervals: 4, IntervalInsts: 5_000,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*SampleSpec)
	}{
		{"run-key job", func(sp *SampleSpec) { sp.Job.Policy = ""; sp.Job.RunKey = "dmdc-global-config2" }},
		{"embedded checkpoint", func(sp *SampleSpec) { sp.Job.Checkpoint = []byte{1} }},
		{"soundness", func(sp *SampleSpec) { sp.Job.Soundness = true }},
		{"faults", func(sp *SampleSpec) { sp.Job.Faults = "replay:4@1000+2000" }},
		{"watchdog override", func(sp *SampleSpec) { sp.Job.WatchdogCycles = 500_000 }},
		{"zero intervals", func(sp *SampleSpec) { sp.Intervals = 0 }},
		{"zero interval length", func(sp *SampleSpec) { sp.IntervalInsts = 0 }},
		{"intervals do not fit", func(sp *SampleSpec) { sp.Intervals = 50; sp.IntervalInsts = 5_000 }},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			sp := good
			c.mut(&sp)
			if err := sp.Validate(); err == nil {
				t.Fatalf("spec with %s validated", c.name)
			}
		})
	}
}

// TestSampledDeterminism runs the same sampled spec twice and requires
// byte-identical canonical JSON, plus structural exactly-once accounting:
// every interval present once, in order, with a unique non-empty
// checkpoint ref and its full detailed budget.
func TestSampledDeterminism(t *testing.T) {
	t.Parallel()
	sp := SampleSpec{
		Job:       JobSpec{Machine: config.Config1(), Policy: "dmdc", Benchmark: "gcc", Insts: 120_000},
		Intervals: 6, IntervalInsts: 4_000,
	}
	run := func() ([]byte, *SampledResult) {
		r, err := RunSampled(context.Background(), sp)
		if err != nil {
			t.Fatalf("RunSampled: %v", err)
		}
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b, r
	}
	a, ra := run()
	b, _ := run()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical sampled runs produced different results")
	}

	if len(ra.Intervals) != sp.Intervals {
		t.Fatalf("%d intervals in result, want %d", len(ra.Intervals), sp.Intervals)
	}
	refs := map[string]bool{}
	var measured uint64
	for i, iv := range ra.Intervals {
		if iv.Index != i {
			t.Errorf("interval %d carries index %d", i, iv.Index)
		}
		if iv.Insts < sp.IntervalInsts {
			t.Errorf("interval %d measured %d insts, want >= %d", i, iv.Insts, sp.IntervalInsts)
		}
		if len(iv.CheckpointRef) != 64 {
			t.Errorf("interval %d checkpoint ref %q is not a sha256 hex digest", i, iv.CheckpointRef)
		}
		if refs[iv.CheckpointRef] {
			t.Errorf("interval %d reuses checkpoint ref %s", i, iv.CheckpointRef)
		}
		refs[iv.CheckpointRef] = true
		measured += iv.Insts
	}
	if measured != ra.MeasuredInsts {
		t.Errorf("MeasuredInsts %d but intervals sum to %d", ra.MeasuredInsts, measured)
	}
	if ra.TotalInsts != sp.Job.Insts {
		t.Errorf("TotalInsts %d, want %d", ra.TotalInsts, sp.Job.Insts)
	}
	if ra.CPI <= 0 || ra.EstimatedCycles == 0 {
		t.Errorf("degenerate aggregate: cpi=%v estimated=%d", ra.CPI, ra.EstimatedCycles)
	}
}

// TestSampledWarmup pins what Warmup does to a run whose gaps are 16,000
// instructions. A Warmup at or above the gap warms the whole gap, exactly
// as Warmup 0 does. A shorter one skips the rest of the gap cold: it is
// deterministic, and every interval starts from another state than the
// fully warmed run's, so every checkpoint ref differs.
func TestSampledWarmup(t *testing.T) {
	t.Parallel()
	run := func(warmup uint64) ([]byte, *SampledResult) {
		t.Helper()
		r, err := RunSampled(context.Background(), SampleSpec{
			Job:       JobSpec{Machine: config.Config1(), Policy: "dmdc", Benchmark: "gcc", Insts: 120_000},
			Intervals: 6, IntervalInsts: 4_000, Warmup: warmup,
		})
		if err != nil {
			t.Fatalf("warmup %d: %v", warmup, err)
		}
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b, r
	}
	full, rFull := run(0)
	for _, w := range []uint64{16_000, 50_000} {
		if b, _ := run(w); !bytes.Equal(b, full) {
			t.Errorf("warmup %d covers the 16,000-instruction gap but differs from warmup 0:\n%s\nwant\n%s", w, b, full)
		}
	}
	short, rShort := run(2_000)
	if again, _ := run(2_000); !bytes.Equal(again, short) {
		t.Fatal("two identical runs with a 2,000-instruction warmup produced different results")
	}
	for i, iv := range rShort.Intervals {
		if iv.CheckpointRef == rFull.Intervals[i].CheckpointRef {
			t.Errorf("interval %d: a 2,000-instruction warmup starts from the fully warmed state %s", i, iv.CheckpointRef)
		}
	}
}

// failingBackend runs interval jobs in process, counting Run calls, and
// fails the one whose checkpoint ref is failRef.
type failingBackend struct {
	failRef string
	calls   atomic.Int32
}

var errIntervalFailed = errors.New("interval failed on purpose")

func (b *failingBackend) Name() string { return "failing" }

func (b *failingBackend) Run(ctx context.Context, job JobSpec) (*core.Result, error) {
	b.calls.Add(1)
	if job.CheckpointRef == b.failRef {
		return nil, errIntervalFailed
	}
	return ExecuteJob(ctx, job)
}

// TestSampledFailFast fails interval 0 of 8 with one interval slot: the
// run must return interval 0's own error — not a sibling's cancellation —
// and must not go on to run every queued interval.
func TestSampledFailFast(t *testing.T) {
	t.Parallel()
	sp := SampleSpec{
		Job:       JobSpec{Machine: config.Config1(), Policy: "dmdc", Benchmark: "gcc", Insts: 160_000},
		Intervals: 8, IntervalInsts: 2_000, Parallelism: 1,
	}
	ok, err := RunSampled(context.Background(), sp)
	if err != nil {
		t.Fatalf("RunSampled: %v", err)
	}
	b := &failingBackend{failRef: ok.Intervals[0].CheckpointRef}
	sp.Backend = b
	_, err = RunSampled(context.Background(), sp)
	if !errors.Is(err, errIntervalFailed) || !strings.Contains(err.Error(), "interval 0:") {
		t.Fatalf("RunSampled error = %v, want interval 0's %v", err, errIntervalFailed)
	}
	if n := b.calls.Load(); n >= int32(sp.Intervals) {
		t.Fatalf("%d Run calls after interval 0 failed, want fewer than %d", n, sp.Intervals)
	}
}

// TestSampledCancelledContext hands RunSampled an already cancelled
// context for a 10M-instruction run: it must return ctx.Err() without
// fast-forwarding the run or dispatching any interval.
func TestSampledCancelledContext(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := &failingBackend{}
	start := time.Now()
	_, err := RunSampled(ctx, SampleSpec{
		Job:       JobSpec{Machine: config.Config2(), Policy: "dmdc", Benchmark: "gcc", Insts: 10_000_000},
		Intervals: 40, IntervalInsts: 10_000, Backend: b,
	})
	if err != context.Canceled {
		t.Fatalf("RunSampled error = %v, want %v", err, context.Canceled)
	}
	if n := b.calls.Load(); n != 0 {
		t.Fatalf("%d intervals dispatched on a cancelled context", n)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("RunSampled took %v to notice a cancelled context", d)
	}
}

// sampledTolerancePct is the pinned accuracy bound for fully warmed
// sampling (Warmup 0): the worst measured cell sits near 9% (cold-start
// CPI bias on the branchy integer benchmarks), so 15% holds with headroom
// while still catching a broken warm-up or aggregation path, which shows
// errors of 80%+ (see the Warmup-bounds discussion in DESIGN.md §14).
const sampledTolerancePct = 15.0

// errorBoundCell is one row of the committed error-bound report.
type errorBoundCell struct {
	Benchmark       string  `json:"benchmark"`
	Config          string  `json:"config"`
	Policy          string  `json:"policy"`
	FullCycles      uint64  `json:"full_cycles"`
	EstimatedCycles uint64  `json:"estimated_cycles"`
	ErrorPct        float64 `json:"error_pct"`
}

// TestSampledErrorBounds measures sampled-vs-full CPI error on a small
// cross-class matrix and asserts every cell inside the pinned tolerance.
// The per-cell numbers are committed as testdata/sampled_error_bounds.json
// (regenerate with -update) so accuracy drift is reviewable like any other
// golden change.
func TestSampledErrorBounds(t *testing.T) {
	t.Parallel()
	const (
		totalInsts    = 400_000
		intervals     = 10
		intervalInsts = 5_000
	)
	cells := []struct {
		bench, pol string
		m          config.Machine
	}{
		{"gzip", "baseline", config.Config1()},
		{"gcc", "dmdc", config.Config2()},
		{"swim", "dmdc", config.Config1()},
		{"mcf", "baseline", config.Config2()},
	}

	report := make([]errorBoundCell, 0, len(cells))
	for _, c := range cells {
		job := JobSpec{Machine: c.m, Policy: c.pol, Benchmark: c.bench, Insts: totalInsts}
		full, err := ExecuteJob(context.Background(), job)
		if err != nil {
			t.Fatalf("full run %s/%s/%s: %v", c.bench, c.m.Name, c.pol, err)
		}
		sr, err := RunSampled(context.Background(), SampleSpec{
			Job: job, Intervals: intervals, IntervalInsts: intervalInsts,
		})
		if err != nil {
			t.Fatalf("sampled run %s/%s/%s: %v", c.bench, c.m.Name, c.pol, err)
		}
		errPct := 100 * (float64(sr.EstimatedCycles) - float64(full.Cycles)) / float64(full.Cycles)
		report = append(report, errorBoundCell{
			Benchmark: c.bench, Config: c.m.Name, Policy: c.pol,
			FullCycles: full.Cycles, EstimatedCycles: sr.EstimatedCycles, ErrorPct: errPct,
		})
		if errPct > sampledTolerancePct || errPct < -sampledTolerancePct {
			t.Errorf("%s/%s/%s: sampled estimate off by %+.2f%%, tolerance %.1f%%",
				c.bench, c.m.Name, c.pol, errPct, sampledTolerancePct)
		}
	}

	got, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "sampled_error_bounds.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing error-bound report (run `go test ./internal/experiments -run SampledErrorBounds -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("error-bound report drifted from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}

// TestSampledSpeedup is the acceptance benchmark: a >= 5M-instruction
// sampled run must beat the equivalent full detailed run wall-clock. It
// costs a full 5M-instruction detailed simulation, so it only runs when
// DMDC_SAMPLE_SPEEDUP=1 (set by `make sample-check`).
func TestSampledSpeedup(t *testing.T) {
	if os.Getenv("DMDC_SAMPLE_SPEEDUP") == "" {
		t.Skip("set DMDC_SAMPLE_SPEEDUP=1 to run the 5M-instruction speedup gate")
	}
	job := JobSpec{Machine: config.Config2(), Policy: "dmdc", Benchmark: "gcc", Insts: 5_000_000}

	fullStart := time.Now()
	full, err := ExecuteJob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(fullStart)

	sampledStart := time.Now()
	sr, err := RunSampled(context.Background(), SampleSpec{
		Job: job, Intervals: 20, IntervalInsts: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sampledDur := time.Since(sampledStart)

	t.Logf("full: %v cycles in %v; sampled: %v estimated cycles in %v (%.1fx)",
		full.Cycles, fullDur, sr.EstimatedCycles, sampledDur,
		float64(fullDur)/float64(sampledDur))
	if sampledDur >= fullDur {
		t.Errorf("sampled run (%v) not faster than full detailed run (%v)", sampledDur, fullDur)
	}
	errPct := 100 * (float64(sr.EstimatedCycles) - float64(full.Cycles)) / float64(full.Cycles)
	if errPct > sampledTolerancePct || errPct < -sampledTolerancePct {
		t.Errorf("5M-instruction estimate off by %+.2f%%, tolerance %.1f%%", errPct, sampledTolerancePct)
	}
}
