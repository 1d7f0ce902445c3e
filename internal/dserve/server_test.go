package dserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dmdc/internal/config"
	"dmdc/internal/experiments"
	"dmdc/internal/resultcache"
	"dmdc/internal/telemetry"
)

// quickSpec is a small real simulation (a few ms).
func quickSpec(bench string) experiments.JobSpec {
	return experiments.JobSpec{
		Machine:   config.Config2(),
		Policy:    "baseline",
		Benchmark: bench,
		Insts:     5_000,
	}
}

// slowSpec is a simulation big enough to still be running while a test
// pokes at the server (hundreds of ms at least).
func slowSpec(bench string) experiments.JobSpec {
	return experiments.JobSpec{
		Machine:   config.Config2(),
		Policy:    "baseline",
		Benchmark: bench,
		Insts:     200_000_000,
	}
}

// submit POSTs one batch and decodes the per-job statuses.
func submit(t *testing.T, url string, specs ...experiments.JobSpec) (ListResponse, int) {
	t.Helper()
	body, err := json.Marshal(SubmitRequest{Jobs: specs})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var lr ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatalf("decode submit response (%s): %v", resp.Status, err)
	}
	return lr, resp.StatusCode
}

// getStatus GETs one job's status, optionally long-polling.
func getStatus(t *testing.T, url, id, wait string) JobStatus {
	t.Helper()
	u := url + "/v1/jobs/" + id
	if wait != "" {
		u += "?wait=" + wait
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var js JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return js
}

// TestServerLifecycle drives one job through submit → long-poll → result
// and checks the health counters.
func TestServerLifecycle(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := quickSpec("gcc")
	lr, code := submit(t, ts.URL, spec)
	if code != http.StatusOK || len(lr.Jobs) != 1 {
		t.Fatalf("submit: code %d, %d jobs", code, len(lr.Jobs))
	}
	if lr.Jobs[0].ID != spec.CacheKey() {
		t.Fatalf("job id %q, want the spec's cache key", lr.Jobs[0].ID)
	}
	js := getStatus(t, ts.URL, lr.Jobs[0].ID, "30s")
	if js.Status != StatusDone {
		t.Fatalf("after long poll: %+v", js)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + js.ID + "/result")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %v %v", err, resp)
	}
	resp.Body.Close()

	var h Health
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer hr.Body.Close()
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	if !h.OK || h.Done != 1 || h.Executed != 1 {
		t.Fatalf("health: %+v", h)
	}
}

// TestServerListJobs pins GET /v1/jobs: once three submitted jobs have
// finished, the list holds exactly their IDs and statuses, and no entry
// carries a result.
func TestServerListJobs(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	lr, code := submit(t, ts.URL, quickSpec("gzip"), quickSpec("gcc"), quickSpec("swim"))
	if code != http.StatusOK || len(lr.Jobs) != 3 {
		t.Fatalf("submit: code %d, %d jobs", code, len(lr.Jobs))
	}
	want := make(map[string]JobStatus, len(lr.Jobs))
	for _, js := range lr.Jobs {
		done := getStatus(t, ts.URL, js.ID, "30s")
		if done.Status != StatusDone {
			t.Fatalf("job %s ended %s (%s)", js.ID, done.Status, done.Error)
		}
		want[js.ID] = done
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %v", resp.StatusCode, err)
	}
	var list ListResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(list.Jobs) != len(want) {
		t.Fatalf("list has %d jobs, want %d", len(list.Jobs), len(want))
	}
	for _, js := range list.Jobs {
		if w, ok := want[js.ID]; !ok || js != w {
			t.Errorf("listed %+v, want one of the submitted jobs as %+v", js, w)
		}
	}
	// Statuses only: every field of every entry is a JobStatus field.
	var fields struct {
		Jobs []map[string]json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, entry := range fields.Jobs {
		for k := range entry {
			switch k {
			case "id", "status", "tenant", "cached", "error", "retryable":
			default:
				t.Errorf("list entry carries %q", k)
			}
		}
	}
}

// TestServerIdempotentResubmit pins content-addressed admission: the same
// spec submitted repeatedly lands on one job and simulates exactly once.
func TestServerIdempotentResubmit(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := quickSpec("swim")
	first, _ := submit(t, ts.URL, spec)
	// Resubmitting (even in a batch that repeats the spec) reuses the job.
	again, _ := submit(t, ts.URL, spec, spec)
	for _, js := range again.Jobs {
		if js.ID != first.Jobs[0].ID {
			t.Fatalf("resubmit created a new job: %q vs %q", js.ID, first.Jobs[0].ID)
		}
	}
	if js := getStatus(t, ts.URL, first.Jobs[0].ID, "30s"); js.Status != StatusDone {
		t.Fatalf("job did not finish: %+v", js)
	}
	if got := srv.Executed(); got != 1 {
		t.Fatalf("executed %d simulations for one unique spec, want 1", got)
	}
}

// TestServerCacheHit pins the cache path: a second server sharing the
// result cache answers the same spec without simulating.
func TestServerCacheHit(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cache, err := resultcache.Open(dir)
	if err != nil {
		t.Fatalf("cache: %v", err)
	}
	spec := quickSpec("mcf")

	srv1 := newTestServer(t, ServerConfig{Workers: 1, Cache: cache})
	ts1 := httptest.NewServer(srv1)
	lr, _ := submit(t, ts1.URL, spec)
	if js := getStatus(t, ts1.URL, lr.Jobs[0].ID, "30s"); js.Status != StatusDone {
		t.Fatalf("warmup job: %+v", js)
	}
	ts1.Close()
	srv1.Close()

	cache2, err := resultcache.Open(dir)
	if err != nil {
		t.Fatalf("cache2: %v", err)
	}
	srv2 := newTestServer(t, ServerConfig{Workers: 1, Cache: cache2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	lr2, _ := submit(t, ts2.URL, spec)
	if js := lr2.Jobs[0]; js.Status != StatusDone || !js.Cached {
		t.Fatalf("shared-cache submit not answered from cache: %+v", js)
	}
	if got := srv2.Executed(); got != 0 {
		t.Fatalf("cache-hit server executed %d simulations, want 0", got)
	}
}

// TestServerBackpressure fills a tiny server and requires rejection (not
// blocking, not loss) for the overflow, including the all-rejected 503.
func TestServerBackpressure(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the single worker, then wait until it is actually running so
	// the queue state is deterministic.
	running, _ := submit(t, ts.URL, slowSpec("gzip"))
	deadline := time.Now().Add(30 * time.Second)
	for {
		if js := getStatus(t, ts.URL, running.Jobs[0].ID, ""); js.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Fill the one queue slot.
	queued, _ := submit(t, ts.URL, slowSpec("gcc"))
	if queued.Jobs[0].Status != StatusQueued {
		t.Fatalf("second job: %+v", queued.Jobs[0])
	}
	// Overflow: rejected per-job and 503 at the HTTP layer.
	over, code := submit(t, ts.URL, slowSpec("swim"))
	if over.Jobs[0].Status != StatusRejected {
		t.Fatalf("overflow job: %+v", over.Jobs[0])
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("all-rejected submit returned %d, want 503", code)
	}
	// A mixed batch (one duplicate of an admitted job, one fresh) is not a
	// total rejection, so it stays 200.
	mixed, code := submit(t, ts.URL, slowSpec("gcc"), slowSpec("mcf"))
	if code != http.StatusOK {
		t.Fatalf("mixed submit returned %d, want 200", code)
	}
	if mixed.Jobs[0].Status != StatusQueued || mixed.Jobs[1].Status != StatusRejected {
		t.Fatalf("mixed batch: %+v", mixed.Jobs)
	}
}

// TestServerCloseFailsInFlightRetryably pins the drain contract: closing
// a server gives every admitted job a retryable terminal state — running
// jobs fail (cancelled), admitted-unstarted jobs are rejected — so a
// dispatcher reroutes them immediately instead of hanging a long poll
// until timeout. Nothing is silently lost.
func TestServerCloseFailsInFlightRetryably(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	lr, _ := submit(t, ts.URL, slowSpec("gzip"), slowSpec("gcc"))
	// Wait until one job is actually running, so close deterministically
	// sees one running + one queued job.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if js := getStatus(t, ts.URL, lr.Jobs[0].ID, ""); js.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Close()
	running := getStatus(t, ts.URL, lr.Jobs[0].ID, "30s")
	if running.Status != StatusFailed || !running.Retryable {
		t.Fatalf("after close, running job: %+v, want retryable failure", running)
	}
	queued := getStatus(t, ts.URL, lr.Jobs[1].ID, "30s")
	if queued.Status != StatusRejected || !queued.Retryable {
		t.Fatalf("after close, queued job: %+v, want retryable rejection", queued)
	}
	// New submissions are rejected outright.
	late, code := submit(t, ts.URL, quickSpec("swim"))
	if late.Jobs[0].Status != StatusRejected || code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: %+v code %d", late.Jobs[0], code)
	}
}

// TestServerRejectsInvalid pins validation: a malformed spec fails
// deterministically (non-retryable) without consuming queue space.
func TestServerRejectsInvalid(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bad := experiments.JobSpec{Policy: "no-such-policy", Benchmark: "gcc", Insts: 1}
	lr, _ := submit(t, ts.URL, bad)
	if js := lr.Jobs[0]; js.Status != StatusFailed || js.Retryable {
		t.Fatalf("invalid spec: %+v, want permanent failure", js)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/no-such-id"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job lookup: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
}

// TestServerTelemetryEndpoint pins that a telemetry-enabled server
// exposes per-job series keyed by job ID, and a plain server 404s.
func TestServerTelemetryEndpoint(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{Workers: 1, Telemetry: &telemetry.Config{Stride: 1024}})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	lr, _ := submit(t, ts.URL, quickSpec("gcc"))
	if js := getStatus(t, ts.URL, lr.Jobs[0].ID, "30s"); js.Status != StatusDone {
		t.Fatalf("job: %+v", js)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/telemetry?job=%s", ts.URL, lr.Jobs[0].ID))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("telemetry fetch: %v %v", err, resp)
	}
	resp.Body.Close()

	plain := newTestServer(t, ServerConfig{Workers: 1})
	defer plain.Close()
	tp := httptest.NewServer(plain)
	defer tp.Close()
	if resp, err := http.Get(tp.URL + "/v1/telemetry"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("telemetry on plain server: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
}
