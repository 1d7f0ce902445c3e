package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/resultcache"
	"dmdc/internal/trace"
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
	sim, err := NewCell(m, "swim", YLAFactory, false, nil)
	if err != nil {
		t.Fatalf("NewCell: %v", err)
	}
	want, err := sim.RunContext(context.Background(), jobInsts)
	if err != nil {
		t.Fatalf("direct run: %v", err)
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

// TestJobCacheKeyMatchesSuite pins the idempotency contract end to end: a
// wire job as a client writes it (no machine, since the run key pins one)
// addresses the entry a Suite cached for the same cell, so local and
// remote results share one cache namespace.
func TestJobCacheKeyMatchesSuite(t *testing.T) {
	t.Parallel()
	cache := openCache(t, t.TempDir())
	bench := "gzip"
	s, err := NewSuite(Options{Insts: jobInsts, Benchmarks: []string{bench}, Cache: cache})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	key := "baseline-config2"
	s.get(key)
	if err := s.Err(); err != nil {
		t.Fatalf("suite: %v", err)
	}
	spec := JobSpec{RunKey: key, Benchmark: bench, Insts: jobInsts}
	if hit, ok := cache.Get(spec.CacheKey()); !ok {
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

// TestCacheKeyMatchesJSON pins resultcache.Key's hand-written encoding to
// json.Marshal's, hashed the way keys were first defined: every cached
// entry, and the benchmark's cells digest, is addressed by those bytes.
// It covers every run key on every benchmark, a policy job on each
// machine, a checkpoint interval, a fault campaign, an invalid machine,
// and strings that encoding/json escapes in every string field.
func TestCacheKeyMatchesJSON(t *testing.T) {
	t.Parallel()
	jsonKey := func(ks resultcache.KeySpec) string {
		ks.Version = resultcache.FormatVersion
		b, err := json.Marshal(ks)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	var jobs []JobSpec
	for _, key := range RunKeys() {
		for _, bench := range trace.Names() {
			jobs = append(jobs, JobSpec{RunKey: key, Benchmark: bench, Insts: 500_000})
		}
	}
	for _, m := range append(config.All(), config.IQPressure()) {
		jobs = append(jobs, JobSpec{Machine: m, Policy: "dmdc", Benchmark: "gcc", Insts: 20_000})
	}
	bad := config.Config3()
	bad.ROBSize, bad.BPred.BTBWays, bad.Memory.L1D.Latency = -1, -8, -1<<40
	jobs = append(jobs,
		JobSpec{Machine: config.Config2(), Policy: "dmdc", Benchmark: "gcc", Insts: 10_000,
			Checkpoint: []byte{1}, CheckpointRef: strings.Repeat("0f", 32)},
		JobSpec{RunKey: "baseline-config2", Benchmark: "gzip", Insts: 1, Faults: "alias=8192,spurious=101"},
		JobSpec{Machine: bad, Policy: "cam", Benchmark: "mcf"},
	)
	// Each string holds one class of byte that encoding/json escapes, so
	// every class must reach the escaping path on its own.
	for _, s := range []string{"a<b", "a>b", "a&b", `say "hi"`, `back\slash`, "tab\tnew\nline", "bell\x01",
		"del\x7f", "naïve", "\u2028\u2029", "bad \xff\xfe utf-8", "/~ plain", ""} {
		m := config.Config1()
		m.Name, m.Memory.L1I.Name, m.Memory.L2.Name = s, s+"i", s+"2"
		jobs = append(jobs,
			JobSpec{Machine: m, Policy: s, Benchmark: s, Insts: ^uint64(0), Faults: s, CheckpointRef: s},
			JobSpec{RunKey: s, Benchmark: s})
	}
	for _, j := range jobs {
		sp, _ := specForJob(j)
		want := jsonKey(resultcache.KeySpec{Machine: sp.machine, RunKey: sp.key, Benchmark: j.Benchmark,
			Insts: j.Insts, Faults: j.Faults, CheckpointRef: j.CheckpointRef})
		if got := j.CacheKey(); got != want {
			t.Fatalf("job %+v: key %s, json.Marshal gives %s", j, got, want)
		}
	}
	if !testing.Short() { // allocation counts are load-sensitive
		ks := resultcache.KeySpec{Machine: config.Config2(), RunKey: "dmdc-global-config2", Benchmark: "gcc", Insts: 500_000}
		if n := testing.AllocsPerRun(100, func() { resultcache.Key(ks) }); n > 1 {
			t.Errorf("Key allocates %v times a call, want only its result", n)
		}
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
