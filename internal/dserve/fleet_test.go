package dserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dmdc/internal/experiments"
	"dmdc/internal/jobstore"
	"dmdc/internal/resultcache"
)

// fleetMatrix is the small cold matrix the fleet tests share: enough
// cells to exercise concurrency, cheap enough to run under -race.
func fleetMatrix() []experiments.JobSpec {
	var specs []experiments.JobSpec
	for _, pol := range []string{"baseline", "dmdc"} {
		for _, b := range []string{"gzip", "swim", "mcf"} {
			sp := quickSpec(b)
			sp.Policy = pol
			specs = append(specs, sp)
		}
	}
	return specs
}

// fleetInstance is one in-process dmdcd: a Server over its own disk
// cache, optionally tiered over peers, behind a real HTTP listener.
type fleetInstance struct {
	srv    *Server
	ts     *httptest.Server
	tiered *resultcache.Tiered // nil when the instance has no peers
}

// newFleetInstance builds an instance whose store tiers over the given
// peer base URLs (none means a plain disk cache).
func newFleetInstance(t *testing.T, peerURLs ...string) *fleetInstance {
	t.Helper()
	local := openTestCache(t)
	var cache resultcache.Store = local
	var tiered *resultcache.Tiered
	if len(peerURLs) > 0 {
		var peers []resultcache.Peer
		for _, u := range peerURLs {
			peers = append(peers, NewCachePeer(u, nil))
		}
		var err error
		tiered, err = resultcache.NewTiered(resultcache.TieredConfig{Local: local, Peers: peers})
		if err != nil {
			t.Fatalf("NewTiered: %v", err)
		}
		cache = tiered
	}
	srv := newTestServer(t, ServerConfig{Workers: 2, Cache: cache})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { srv.Close(); ts.Close() })
	return &fleetInstance{srv: srv, ts: ts, tiered: tiered}
}

// runMatrix submits specs and drives every job to done, returning each
// job's canonicalized result bytes keyed by job ID.
func runMatrix(t *testing.T, base string, specs []experiments.JobSpec) map[string]string {
	t.Helper()
	lr, _ := submit(t, base, specs...)
	if len(lr.Jobs) != len(specs) {
		t.Fatalf("submitted %d cells, got %d statuses", len(specs), len(lr.Jobs))
	}
	out := make(map[string]string, len(lr.Jobs))
	for _, js := range lr.Jobs {
		deadline := time.Now().Add(2 * time.Minute)
		for !js.Status.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("cell %s stuck in %s", js.ID, js.Status)
			}
			js = getStatus(t, base, js.ID, "10s")
		}
		if js.Status != StatusDone {
			t.Fatalf("cell %s ended %s (%s)", js.ID, js.Status, js.Error)
		}
		out[js.ID] = fetchResult(t, base, js.ID)
	}
	return out
}

// fetchResult GETs one finished job's result, canonicalized.
func fetchResult(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("fetch result %s: %v", id, err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decode result %s (%s): %v", id, resp.Status, err)
	}
	return mustCompact(t, raw)
}

// TestFleetPeerFetchDedup is the fleet dedup acceptance gate: instance A
// runs the matrix cold; B (peering with A) and C (peering with B) then
// run the identical matrix with ZERO re-simulations — every cell arrives
// over GET /v1/cache, verified, written back, and byte-identical.
func TestFleetPeerFetchDedup(t *testing.T) {
	t.Parallel()
	specs := fleetMatrix()

	a := newFleetInstance(t)
	cold := runMatrix(t, a.ts.URL, specs)
	if got := a.srv.Executed(); got != uint64(len(specs)) {
		t.Fatalf("cold instance executed %d cells, want %d", got, len(specs))
	}

	// B tiers over A: the warm re-run must not simulate anything.
	b := newFleetInstance(t, a.ts.URL)
	warmB := runMatrix(t, b.ts.URL, specs)
	if got := b.srv.Executed(); got != 0 {
		t.Fatalf("peer-warm instance B re-simulated %d cells, want 0", got)
	}
	bs := b.tiered.Stats()
	if bs.PeerHits != uint64(len(specs)) {
		t.Fatalf("B peer hits = %d, want %d (the counters must prove the fetch path ran)", bs.PeerHits, len(specs))
	}
	if bs.PeerErrors != 0 {
		t.Fatalf("B peer errors = %d, want 0", bs.PeerErrors)
	}

	// C tiers over B only: B's write-back must make it a full peer source.
	c := newFleetInstance(t, b.ts.URL)
	warmC := runMatrix(t, c.ts.URL, specs)
	if got := c.srv.Executed(); got != 0 {
		t.Fatalf("peer-warm instance C re-simulated %d cells, want 0", got)
	}
	if cs := c.tiered.Stats(); cs.PeerHits != uint64(len(specs)) {
		t.Fatalf("C peer hits = %d, want %d", cs.PeerHits, len(specs))
	}

	for id, want := range cold {
		if warmB[id] != want {
			t.Errorf("cell %s: B's fetched result diverged from A's", id)
		}
		if warmC[id] != want {
			t.Errorf("cell %s: C's fetched result diverged from A's", id)
		}
	}

	// A second pass on B is now a pure local-tier hit: no new peer traffic.
	runMatrix(t, b.ts.URL, specs)
	if after := b.tiered.Stats(); after.PeerHits != bs.PeerHits {
		t.Fatalf("second warm pass fetched %d more entries from peers, want local hits only",
			after.PeerHits-bs.PeerHits)
	}

	// Mixed-version guard: every instance must agree on the version tuple
	// peers compare before interoperating.
	for _, inst := range []*fleetInstance{a, b, c} {
		v, err := NewCachePeer(inst.ts.URL, nil).Version(context.Background())
		if err != nil {
			t.Fatalf("version: %v", err)
		}
		if v.Protocol != ProtocolVersion || v.CacheFormat != resultcache.FormatVersion ||
			v.JournalFormat != jobstore.FormatVersion {
			t.Fatalf("version tuple %+v does not match this build", v)
		}
	}
}

// TestFleetSharedStoreHandoff drains a matrix across three instances
// sharing one journal and one result cache, one owner at a time: each
// successor re-queues its predecessor's admitted-but-unfinished jobs
// immediately. Zero lost (every cell reaches done),
// zero duplicated (the fleet-wide execution count equals the cell
// count), byte-identical (results match a local run).
func TestFleetSharedStoreHandoff(t *testing.T) {
	t.Parallel()
	storeDir, cacheDir := t.TempDir(), t.TempDir()
	open := func() (*jobstore.Store, *resultcache.Cache) {
		st, _, err := jobstore.Open(storeDir, jobstore.Options{})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		c, err := resultcache.Open(cacheDir)
		if err != nil {
			t.Fatalf("open cache: %v", err)
		}
		return st, c
	}

	// Instance a: finish one cell, then drain with a medium cell holding
	// the single worker and three more queued behind it.
	storeA, cacheA := open()
	srvA := newTestServer(t, ServerConfig{Workers: 1, Cache: cacheA, Store: storeA, Instance: "a"})
	tsA := httptest.NewServer(srvA)
	first, _ := submit(t, tsA.URL, quickSpec("gzip"))
	if js := getStatus(t, tsA.URL, first.Jobs[0].ID, "30s"); js.Status != StatusDone {
		t.Fatalf("warm-up cell ended %s (%s)", js.Status, js.Error)
	}
	pending, _ := submit(t, tsA.URL, mediumSpec("art"), quickSpec("gcc"), quickSpec("swim"), quickSpec("mcf"))
	ids := []string{first.Jobs[0].ID}
	for _, js := range pending.Jobs {
		ids = append(ids, js.ID)
	}
	srvA.Close()
	tsA.Close()
	executedA := srvA.Executed()
	storeA.Close()

	// Instance b adopts instantly, works briefly, and drains in turn.
	storeB, cacheB := open()
	srvB := newTestServer(t, ServerConfig{Workers: 1, Cache: cacheB, Store: storeB, Instance: "b"})
	hb := srvB.Stats()
	if hb.Instance != "b" {
		t.Fatalf("instance label = %q, want b", hb.Instance)
	}
	if hb.ResumedRequeued == 0 {
		t.Fatal("instance b adopted nothing; the handoff had nothing to prove")
	}
	// Let b make some progress (at least one adopted cell) before it
	// hands off again.
	deadline := time.Now().Add(time.Minute)
	for srvB.Executed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("instance b never executed an adopted cell")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srvB.Close()
	executedB := srvB.Executed()
	storeB.Close()

	// Instance c finishes whatever is left.
	storeC, cacheC := open()
	srvC := newTestServer(t, ServerConfig{Workers: 2, Cache: cacheC, Store: storeC, Instance: "c"})
	defer srvC.Close()
	defer storeC.Close()
	tsC := httptest.NewServer(srvC)
	defer tsC.Close()

	specs := map[string]experiments.JobSpec{
		first.Jobs[0].ID:   quickSpec("gzip"),
		pending.Jobs[0].ID: mediumSpec("art"),
		pending.Jobs[1].ID: quickSpec("gcc"),
		pending.Jobs[2].ID: quickSpec("swim"),
		pending.Jobs[3].ID: quickSpec("mcf"),
	}
	for _, id := range ids {
		js := getStatus(t, tsC.URL, id, "60s")
		pollDeadline := time.Now().Add(2 * time.Minute)
		for !js.Status.Terminal() {
			if time.Now().After(pollDeadline) {
				t.Fatalf("cell %s stuck in %s on instance c", id, js.Status)
			}
			js = getStatus(t, tsC.URL, id, "60s")
		}
		if js.Status != StatusDone {
			t.Fatalf("cell %s ended %s (%s) after two handoffs", id, js.Status, js.Error)
		}
		got := fetchResult(t, tsC.URL, id)
		local, err := experiments.ExecuteJob(context.Background(), specs[id])
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(local)
		if got != mustCompact(t, want) {
			t.Errorf("cell %s: handed-off result diverged from local", id)
		}
	}

	// Zero duplicated: across the whole fleet each cell simulated once.
	total := executedA + executedB + srvC.Executed()
	if total != uint64(len(ids)) {
		t.Fatalf("fleet executed %d simulations for %d cells (a=%d b=%d c=%d) — lost or duplicated work",
			total, len(ids), executedA, executedB, srvC.Executed())
	}
}

// TestFleetCrashedOwnerAdoption covers the crashed-owner case: the
// journal holds only the admissions of an owner that died mid-matrix,
// without a drain. Its directory lock died with it, so the successor's
// NewServer re-queues every job at once — nothing waits on the dead
// owner — and finishes each exactly once, byte-identical to a local run.
func TestFleetCrashedOwnerAdoption(t *testing.T) {
	t.Parallel()
	storeDir := t.TempDir()
	store, _, err := jobstore.Open(storeDir, jobstore.Options{Sync: true})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	specs := []experiments.JobSpec{quickSpec("gzip"), quickSpec("swim")}
	for _, sp := range specs {
		specJSON, _ := json.Marshal(sp)
		if err := store.Append(jobstore.Record{
			State: jobstore.StateAdmitted, ID: sp.CacheKey(), Tenant: "ghost-tenant", Spec: specJSON,
		}); err != nil {
			t.Fatalf("append admitted: %v", err)
		}
	}
	// The owner dies: its lock goes with it, its jobs stay admitted.
	store.Close()

	store2, _, err := jobstore.Open(storeDir, jobstore.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer store2.Close()
	srv := newTestServer(t, ServerConfig{
		Workers: 2, Cache: openTestCache(t), Store: store2, Instance: "successor",
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	h := srv.Stats()
	if h.ResumedRequeued != uint64(len(specs)) || h.ResumedDone != 0 {
		t.Fatalf("resumed %d requeued + %d done at open, want all %d re-queued at once",
			h.ResumedRequeued, h.ResumedDone, len(specs))
	}
	if th := h.Tenants["ghost-tenant"]; th.Admitted != uint64(len(specs)) {
		t.Fatalf("adopted jobs lost their tenant: %+v", h.Tenants)
	}

	for _, sp := range specs {
		id := sp.CacheKey()
		js := getStatus(t, ts.URL, id, "30s")
		deadline := time.Now().Add(time.Minute)
		for !js.Status.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("adopted job %s stuck in %s", id, js.Status)
			}
			js = getStatus(t, ts.URL, id, "30s")
		}
		if js.Status != StatusDone {
			t.Fatalf("adopted job %s ended %s (%s)", id, js.Status, js.Error)
		}
		got := fetchResult(t, ts.URL, id)
		local, err := experiments.ExecuteJob(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(local)
		if got != mustCompact(t, want) {
			t.Errorf("adopted job %s diverged from local", id)
		}
	}
	if got := srv.Executed(); got != uint64(len(specs)) {
		t.Fatalf("successor executed %d simulations for %d adopted jobs, want each once", got, len(specs))
	}
}

// TestFleetErrorEnvelope pins the structured error contract every /v1
// endpoint shares: machine-readable code, human message, and an explicit
// retryable verdict.
func TestFleetErrorEnvelope(t *testing.T) {
	t.Parallel()
	inst := newFleetInstance(t)
	for _, tc := range []struct {
		path      string
		status    int
		code      string
		retryable bool
	}{
		{"/v1/jobs/nonesuch", http.StatusNotFound, CodeNotFound, false},
		{"/v1/cache/not-a-hex-key", http.StatusBadRequest, CodeBadRequest, false},
		{"/v1/cache/" + fmt.Sprintf("%064x", 0), http.StatusNotFound, CodeNotFound, false},
		{"/v1/telemetry", http.StatusNotFound, CodeUnavailable, false},
	} {
		resp, err := http.Get(inst.ts.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		var env ErrorEnvelope
		derr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if derr != nil {
			t.Fatalf("GET %s: non-envelope error body: %v", tc.path, derr)
		}
		if resp.StatusCode != tc.status || env.Code != tc.code || env.Retryable != tc.retryable || env.Message == "" {
			t.Errorf("GET %s = %d %+v, want %d code=%s retryable=%v",
				tc.path, resp.StatusCode, env, tc.status, tc.code, tc.retryable)
		}
	}
}
