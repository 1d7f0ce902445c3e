package dserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dmdc/internal/experiments"
	"dmdc/internal/telemetry"
)

// submitAs POSTs one batch under a tenant header and returns the
// statuses, HTTP code, and Retry-After header value.
func submitAs(t *testing.T, url, tenant string, specs ...experiments.JobSpec) (ListResponse, int, string) {
	t.Helper()
	body, err := json.Marshal(SubmitRequest{Jobs: specs})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var lr ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatalf("decode submit response (%s): %v", resp.Status, err)
	}
	return lr, resp.StatusCode, resp.Header.Get("Retry-After")
}

// TestTenantHeaderAdmission: jobs land on the queue named by the header
// (default tenant without one), and /v1/healthz breaks depth and served
// counts down per tenant.
func TestTenantHeaderAdmission(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	lr, code, _ := submitAs(t, ts.URL, "alice", quickSpec("gcc"))
	if code != http.StatusOK || lr.Jobs[0].Tenant != "alice" {
		t.Fatalf("alice submit: code %d, tenant %q", code, lr.Jobs[0].Tenant)
	}
	if js := getStatus(t, ts.URL, lr.Jobs[0].ID, "30s"); js.Status != StatusDone {
		t.Fatalf("alice job ended %s (%s)", js.Status, js.Error)
	}
	lr, _, _ = submitAs(t, ts.URL, "", quickSpec("gzip"))
	if lr.Jobs[0].Tenant != DefaultTenant {
		t.Fatalf("headerless submit landed on tenant %q, want %q", lr.Jobs[0].Tenant, DefaultTenant)
	}
	getStatus(t, ts.URL, lr.Jobs[0].ID, "30s")

	h := srv.Stats()
	th, ok := h.Tenants["alice"]
	if !ok || th.Admitted != 1 || th.Served != 1 {
		t.Fatalf("alice tenant health %+v (present %v), want admitted=1 served=1", th, ok)
	}
	if th, ok := h.Tenants[DefaultTenant]; !ok || th.Admitted != 1 {
		t.Fatalf("default tenant health %+v (present %v), want admitted=1", th, ok)
	}
}

// TestTenantQueueIsolation: one tenant saturating its own queue is
// rejected with a Retry-After hint while another tenant is still
// admitted — per-tenant depth, not a shared bound.
func TestTenantQueueIsolation(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Hold the worker, then fill hog's one queue slot.
	submitAs(t, ts.URL, "hog", slowSpec("gzip"))
	submitAs(t, ts.URL, "hog", slowSpec("gcc"))
	over, code, retryAfter := submitAs(t, ts.URL, "hog", slowSpec("swim"))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("hog overflow: code %d, want 503", code)
	}
	if js := over.Jobs[0]; js.Status != StatusRejected || !js.Retryable || !strings.Contains(js.Error, "queue full") {
		t.Fatalf("hog overflow status %+v, want retryable queue-full rejection", js)
	}
	if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want an integer >= 1", retryAfter)
	}

	// The other tenant's queue is untouched.
	lr, code, _ := submitAs(t, ts.URL, "quiet", slowSpec("mcf"))
	if code != http.StatusOK || lr.Jobs[0].Status != StatusQueued {
		t.Fatalf("quiet tenant blocked by hog: code %d, status %+v", code, lr.Jobs[0])
	}
}

// TestTenantQuota: a per-tenant running quota caps concurrency for that
// tenant even with idle workers.
func TestTenantQuota(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{
		Workers: 4,
		Tenants: TenantConfig{Quota: 1},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	submitAs(t, ts.URL, "capped", slowSpec("gzip"), slowSpec("gcc"), slowSpec("swim"))
	deadline := time.Now().Add(10 * time.Second)
	for {
		if th := srv.Stats().Tenants["capped"]; th.Running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("capped tenant never started a job: %+v", srv.Stats().Tenants["capped"])
		}
		time.Sleep(time.Millisecond)
	}
	// Idle workers must not push the tenant past its quota.
	time.Sleep(50 * time.Millisecond)
	if th := srv.Stats().Tenants["capped"]; th.Running != 1 || th.Queued != 2 {
		t.Fatalf("capped tenant at running=%d queued=%d, want 1 running 2 queued under quota 1", th.Running, th.Queued)
	}
}

// TestTenantBadNameRejected: malformed tenant headers are a client error,
// not a new queue.
func TestTenantBadNameRejected(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, bad := range []string{"has space", strings.Repeat("x", 65)} {
		body, _ := json.Marshal(SubmitRequest{Jobs: []experiments.JobSpec{quickSpec("gcc")}})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set(TenantHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("tenant %q: code %d, want 400", bad, resp.StatusCode)
		}
	}
	// Go's client refuses to even send control characters; exercise the
	// server-side check directly.
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
	req.Header[http.CanonicalHeaderKey(TenantHeader)] = []string{"ctrl\x01char"}
	if _, err := tenantFrom(req); err == nil {
		t.Fatal("control character in tenant name accepted")
	}
}

// TestTenantWeightedServing drives the full server path at weights 3:1:
// configured weights reach the scheduler, and both tenants are served to
// completion (the 10%-of-3:1 ratio itself is pinned deterministically in
// TestDRRWeightedRatio, where serving order is observable without races).
func TestTenantWeightedServing(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{
		Workers: 1,
		Tenants: TenantConfig{Weights: map[string]int{"heavy": 3, "light": 1}},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var heavy, light []experiments.JobSpec
	for i, b := range []string{"gzip", "gcc", "swim"} {
		spec := quickSpec(b)
		spec.Insts = 5_000 + uint64(i) // distinct content addresses
		heavy = append(heavy, spec)
		spec.Insts += 100
		light = append(light, spec)
	}
	hr, _, _ := submitAs(t, ts.URL, "heavy", heavy...)
	lr, _, _ := submitAs(t, ts.URL, "light", light...)
	for _, js := range append(hr.Jobs, lr.Jobs...) {
		if got := getStatus(t, ts.URL, js.ID, "30s"); got.Status != StatusDone {
			t.Fatalf("job %s (%s) ended %s (%s)", js.ID, js.Tenant, got.Status, got.Error)
		}
	}

	h := srv.Stats()
	if w := h.Tenants["heavy"].Weight; w != 3 {
		t.Fatalf("heavy weight %d, want 3", w)
	}
	if w := h.Tenants["light"].Weight; w != 1 {
		t.Fatalf("light weight %d, want 1", w)
	}
	for _, name := range []string{"heavy", "light"} {
		th := h.Tenants[name]
		if th.Served != th.Admitted || th.Served != 3 {
			t.Fatalf("tenant %s served %d of %d admitted, want all 3", name, th.Served, th.Admitted)
		}
	}
}

// TestTelemetryCounters: with telemetry enabled, the service counters are
// served on /v1/healthz, per tenant too, and only there: the
// /v1/telemetry index lists jobs and nothing else.
func TestTelemetryCounters(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, ServerConfig{Workers: 1, Telemetry: &telemetry.Config{Stride: 1024}})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	lr, _, _ := submitAs(t, ts.URL, "alice", quickSpec("gcc"))
	if js := getStatus(t, ts.URL, lr.Jobs[0].ID, "30s"); js.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", js.Status, js.Error)
	}

	var h Health
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h.Executed != 1 {
		t.Fatalf("executed = %d, want 1 (health: %+v)", h.Executed, h)
	}
	if th := h.Tenants["alice"]; th.Served != 1 || th.Admitted != 1 {
		t.Fatalf("tenant alice served %d of %d admitted, want 1 of 1", th.Served, th.Admitted)
	}

	var idx map[string]any
	getJSON(t, ts.URL+"/v1/telemetry", &idx)
	if _, ok := idx["jobs"]; !ok || len(idx) != 1 {
		t.Fatalf("telemetry index %v, want the jobs list only", idx)
	}
}
