package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/core"
)

// jobInsts keeps wire-job cells quick but non-trivial.
const jobInsts = 20_000

// mustJSON fingerprints a result for byte-identity comparison.
func mustJSON(t *testing.T, r *core.Result) string {
	t.Helper()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestExecuteJobMatchesSuiteCell ships matrix cells through the wire-job
// path and requires byte-identical results to the Suite's in-process
// runner — including keys whose specs carry monitors (monitored-baseline)
// and injection options (dmdc-inv10), the cases where a construction-order
// slip would silently change behavior.
func TestExecuteJobMatchesSuiteCell(t *testing.T) {
	t.Parallel()
	keys := []string{"dmdc-global-config2", "monitored-baseline", "dmdc-inv10"}
	bench := "gcc"
	s, err := NewSuite(Options{Insts: jobInsts, Benchmarks: []string{bench}})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	local := s.get(keys...)
	if err := s.Err(); err != nil {
		t.Fatalf("suite: %v", err)
	}
	for _, key := range keys {
		res := local[key]
		if len(res) != 1 || res[0] == nil {
			t.Fatalf("suite produced no result for %s", key)
		}
		spec := JobSpec{RunKey: key, Benchmark: bench, Insts: jobInsts}
		// The wire form must survive a JSON round trip unchanged.
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal spec: %v", err)
		}
		var back JobSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal spec: %v", err)
		}
		remote, err := ExecuteJob(context.Background(), back)
		if err != nil {
			t.Fatalf("ExecuteJob(%s): %v", key, err)
		}
		if got, want := mustJSON(t, remote), mustJSON(t, res[0]); got != want {
			t.Errorf("wire job %s/%s diverged from suite cell", key, bench)
		}
	}
}

// TestExecuteJobPolicyForm exercises the Policy (machine-carrying) job
// form against the same policy run directly.
func TestExecuteJobPolicyForm(t *testing.T) {
	t.Parallel()
	m := config.Config1()
	spec := JobSpec{Machine: m, Policy: "yla", Benchmark: "swim", Insts: jobInsts}
	got, err := ExecuteJob(context.Background(), spec)
	if err != nil {
		t.Fatalf("ExecuteJob: %v", err)
	}
	sp := runSpec{key: "policy:yla", machine: m, factory: YLAFactory}
	want, err := executeCell(context.Background(), sp, "swim", execParams{insts: jobInsts})
	if err != nil {
		t.Fatalf("executeCell: %v", err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("policy-form job diverged from direct execution")
	}
}

// TestJobSpecValidate sweeps the rejection cases.
func TestJobSpecValidate(t *testing.T) {
	t.Parallel()
	m := config.Config2()
	good := JobSpec{Machine: m, Policy: "dmdc", Benchmark: "gcc", Insts: 1000}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	ckpt := good
	ckpt.Checkpoint, ckpt.CheckpointRef = []byte{1}, "ref"
	if err := ckpt.Validate(); err != nil {
		t.Fatalf("valid checkpoint spec rejected: %v", err)
	}
	ckptWatchdog := ckpt
	ckptWatchdog.WatchdogCycles = 500_000
	cases := map[string]JobSpec{
		"both key and policy":  {Machine: m, RunKey: "yla-config2", Policy: "dmdc", Benchmark: "gcc", Insts: 1000},
		"neither key nor pol":  {Machine: m, Benchmark: "gcc", Insts: 1000},
		"unknown run key":      {RunKey: "no-such-key", Benchmark: "gcc", Insts: 1000},
		"unknown policy":       {Machine: m, Policy: "no-such-policy", Benchmark: "gcc", Insts: 1000},
		"machine mismatch":     {Machine: config.Config1(), RunKey: "yla-config2", Benchmark: "gcc", Insts: 1000},
		"no benchmark":         {Machine: m, Policy: "dmdc", Insts: 1000},
		"unknown benchmark":    {Machine: m, Policy: "dmdc", Benchmark: "nope", Insts: 1000},
		"no instruction count": {Machine: m, Policy: "dmdc", Benchmark: "gcc"},
		"bad fault spec":       {Machine: m, Policy: "dmdc", Benchmark: "gcc", Insts: 1000, Faults: "zzz=1"},
		"checkpoint watchdog":  ckptWatchdog,
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

// TestJobCacheKeyMatchesSuite pins the idempotency contract: a wire job's
// content address equals the address the Suite uses for the same cell, so
// local and remote results share one cache namespace.
func TestJobCacheKeyMatchesSuite(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	bench := "gzip"
	s, err := NewSuite(Options{Insts: jobInsts, Benchmarks: []string{bench}, CacheDir: dir})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	key := "baseline-config2"
	s.get(key)
	if err := s.Err(); err != nil {
		t.Fatalf("suite: %v", err)
	}
	spec := JobSpec{RunKey: key, Benchmark: bench, Insts: jobInsts}
	if hit, ok := s.cache.Get(spec.CacheKey()); !ok {
		t.Fatal("wire job's cache key missed the suite's cached result")
	} else if hit == nil {
		t.Fatal("cache returned nil result")
	}
	// Distinct policy jobs must land in a reserved namespace that can
	// never collide with run keys.
	pspec := JobSpec{Machine: config.Config2(), Policy: "baseline", Benchmark: bench, Insts: jobInsts}
	if pspec.CacheKey() == spec.CacheKey() {
		t.Fatal("policy job collided with run-key job in the cache namespace")
	}
}

// TestSuiteContextCancel runs a matrix under an already-canceled context:
// every cell must be labeled with context.Canceled in Suite.Err, and no
// simulation may execute.
func TestSuiteContextCancel(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSuite(Options{Insts: jobInsts, Benchmarks: []string{"gcc", "swim"}, Context: ctx})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	s.get("dmdc-global-config2")
	err = s.Err()
	if err == nil {
		t.Fatal("canceled suite reported no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("suite error %v, want context.Canceled", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("suite error %v lacks per-cell RunError labels", err)
	}
	if got := s.Simulated(); got != 0 {
		t.Fatalf("canceled suite executed %d simulations, want 0", got)
	}
}

// TestPolicyFactoryTable pins that every canonical name resolves and the
// list stays in sync with the table.
func TestPolicyFactoryTable(t *testing.T) {
	t.Parallel()
	for _, name := range PolicyNames() {
		if _, err := PolicyFactoryByName(name); err != nil {
			t.Errorf("PolicyFactoryByName(%q): %v", name, err)
		}
	}
	if _, err := PolicyFactoryByName("bogus"); err == nil {
		t.Error("unknown policy name accepted")
	}
}
