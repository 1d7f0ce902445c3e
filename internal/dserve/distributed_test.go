package dserve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/experiments"
)

// fingerprint renders a result exactly like the golden suite.
func fingerprint(t *testing.T, r *core.Result) string {
	t.Helper()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestDistributedEqualsLocal is the tentpole acceptance test: a
// 3-benchmark × 3-config × 4-policy matrix dispatched across two dmdcd
// servers must be byte-identical — every stat counter, every energy
// event — to the same cells executed in-process. Deterministic
// simulation makes this a hard equality, not a tolerance check.
func TestDistributedEqualsLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("72 simulations; skipped in -short")
	}
	t.Parallel()
	const insts = 25_000
	benches := []string{"gzip", "gcc", "swim"}
	machines := []config.Machine{config.Config1(), config.Config2(), config.Config3()}
	policies := []string{"baseline", "yla", "dmdc", "dmdc-local"}

	var specs []experiments.JobSpec
	for _, m := range machines {
		for _, p := range policies {
			for _, b := range benches {
				specs = append(specs, experiments.JobSpec{
					Machine: m, Policy: p, Benchmark: b, Insts: insts,
				})
			}
		}
	}

	srv1 := newTestServer(t, ServerConfig{Workers: 2})
	defer srv1.Close()
	ts1 := httptest.NewServer(srv1)
	defer ts1.Close()
	srv2 := newTestServer(t, ServerConfig{Workers: 2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	d, err := NewDispatcher(DispatcherConfig{
		Backends: []experiments.Backend{
			NewRemote(ts1.URL, nil),
			NewRemote(ts2.URL, nil),
		},
		PerBackendInflight: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	remote := make([]*core.Result, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec experiments.JobSpec) {
			defer wg.Done()
			r, err := d.Run(context.Background(), spec)
			if err != nil {
				t.Errorf("dispatch %s/%s/%s: %v", spec.Machine.Name, spec.Policy, spec.Benchmark, err)
				return
			}
			remote[i] = r
		}(i, spec)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, spec := range specs {
		local, err := experiments.ExecuteJob(context.Background(), spec)
		if err != nil {
			t.Fatalf("local %s/%s/%s: %v", spec.Machine.Name, spec.Policy, spec.Benchmark, err)
		}
		if got, want := fingerprint(t, remote[i]), fingerprint(t, local); got != want {
			t.Errorf("cell %s/%s/%s: distributed result diverged from local", spec.Machine.Name, spec.Policy, spec.Benchmark)
		}
	}

	// Every cell executed exactly once, spread across both servers.
	e1, e2 := srv1.Executed(), srv2.Executed()
	if e1+e2 != uint64(len(specs)) {
		t.Errorf("servers executed %d+%d simulations for %d unique cells", e1, e2, len(specs))
	}
	if e1 == 0 || e2 == 0 {
		t.Errorf("matrix was not sharded: server split %d/%d", e1, e2)
	}
}

// TestRemoteAgainstServer drives the Remote client end to end against a
// real server, including the error taxonomy (permanent validation
// failure vs retryable rejection).
func TestRemoteAgainstServer(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	r := NewRemote(ts.URL, nil)

	spec := quickSpec("gcc")
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	local, err := experiments.ExecuteJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, res) != fingerprint(t, local) {
		t.Fatal("remote result diverged from local")
	}

	// A deterministically bad spec must come back permanent.
	_, err = r.Run(context.Background(), experiments.JobSpec{Policy: "nope", Benchmark: "gcc", Insts: 1})
	if err == nil || Retryable(err) {
		t.Fatalf("bad spec error %v, want permanent", err)
	}

	// A dead server must come back retryable.
	var h Health
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if !h.OK {
		t.Fatalf("health: %+v", h)
	}
	ts.Close()
	_, err = r.Run(context.Background(), spec)
	if err == nil || !Retryable(err) {
		t.Fatalf("dead server error %v, want retryable", err)
	}
}

// TestChaosMatrix is the fault-tolerance acceptance test (run under
// -race via `make check`): a matrix dispatched across two servers while
// one server is killed mid-flight and the other takes a burst of
// injected 502s. Every job must complete exactly once with the correct
// bytes — zero lost, zero duplicated.
func TestChaosMatrix(t *testing.T) {
	t.Parallel()
	const insts = 15_000
	benches := []string{"gzip", "gcc", "swim", "mcf"}
	policies := []string{"baseline", "dmdc"}
	var specs []experiments.JobSpec
	for _, p := range policies {
		for _, b := range benches {
			specs = append(specs, experiments.JobSpec{
				Machine: config.Config2(), Policy: p, Benchmark: b, Insts: insts,
			})
		}
	}

	// Both servers share one content-addressed cache, so a job whose
	// result was computed but never delivered (connection killed between
	// execute and fetch) is answered from the cache on re-dispatch
	// instead of executing twice.
	cache := openTestCache(t)
	srv1 := newTestServer(t, ServerConfig{Workers: 2, Cache: cache})
	ts1 := httptest.NewServer(srv1)
	defer ts1.Close()
	defer srv1.Close()
	srv2 := newTestServer(t, ServerConfig{Workers: 2, Cache: cache})
	defer srv2.Close()
	// Server 2 sits behind a fault-injecting proxy: requests during the
	// burst window get a 502 without reaching the server.
	inject := newFaultWindow(8, 6) // after 8 requests, fail the next 6
	ts2 := httptest.NewServer(inject.wrap(srv2))
	defer ts2.Close()

	d, err := NewDispatcher(DispatcherConfig{
		Backends: []experiments.Backend{
			NewRemote(ts1.URL, nil),
			NewRemote(ts2.URL, nil),
		},
		PerBackendInflight: 3,
		MaxAttempts:        10,
		RetryBase:          2 * time.Millisecond,
		RetryMax:           50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill server 1 after its second completed simulation: drain first
	// (in-flight jobs fail retryably), then sever the transport.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(time.Minute)
		for srv1.Executed() < 2 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		srv1.Close()
		ts1.CloseClientConnections()
	}()

	results := make([]*core.Result, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec experiments.JobSpec) {
			defer wg.Done()
			r, err := d.Run(context.Background(), spec)
			if err != nil {
				t.Errorf("job %s/%s lost: %v", spec.Policy, spec.Benchmark, err)
				return
			}
			results[i] = r
		}(i, spec)
	}
	wg.Wait()
	<-killed
	if t.Failed() {
		t.FailNow()
	}

	// Zero lost: every cell produced a result with the correct bytes.
	for i, spec := range specs {
		local, err := experiments.ExecuteJob(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(t, results[i]) != fingerprint(t, local) {
			t.Errorf("cell %s/%s: chaos result diverged from local", spec.Policy, spec.Benchmark)
		}
	}
	// Zero duplicated: the shared cache and content-addressed admission
	// mean each unique cell simulated at most once across the fleet.
	if e1, e2 := srv1.Executed(), srv2.Executed(); e1+e2 > uint64(len(specs)) {
		t.Errorf("fleet executed %d+%d simulations for %d unique cells (duplicates)", e1, e2, len(specs))
	}
	if inject.fired.Load() == 0 {
		t.Error("fault window never fired; chaos did not exercise the 5xx path")
	}
}
