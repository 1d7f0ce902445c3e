package dserve

// Peer-degradation chaos: a fleet instance whose peers die mid-transfer,
// serve corrupt bytes, lie about hashes, or speak a different cache
// format must degrade to local computation with byte-identical results —
// a broken peer can cost time, never correctness.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path"
	"strconv"
	"testing"

	"dmdc/internal/experiments"
	"dmdc/internal/resultcache"
)

// localBytes canonicalizes a spec's in-process result for comparison.
func localBytes(t *testing.T, sp experiments.JobSpec) string {
	t.Helper()
	res, err := experiments.ExecuteJob(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(res)
	return mustCompact(t, b)
}

// entryHeaders stamps a cache response the way a healthy dmdcd would.
func entryHeaders(w http.ResponseWriter, body []byte) {
	sum := sha256.Sum256(body)
	w.Header().Set(CacheSumHeader, hex.EncodeToString(sum[:]))
	w.Header().Set(CacheFormatHeader, strconv.Itoa(resultcache.FormatVersion))
}

// TestChaosPeerKilledMidFetch kills the peer connection halfway through
// an entry body (the in-process stand-in for SIGKILLing the peer
// mid-transfer) and, for the second cell, refuses connections entirely.
// Both times the fetching instance must compute locally and match a
// direct run byte for byte.
func TestChaosPeerKilledMidFetch(t *testing.T) {
	t.Parallel()
	// A healthy instance a holds the warm entries the dying peer "serves".
	cacheA := openTestCache(t)
	srvA := newTestServer(t, ServerConfig{Workers: 2, Cache: cacheA})
	tsA := httptest.NewServer(srvA)
	defer func() { srvA.Close(); tsA.Close() }()
	specs := []experiments.JobSpec{quickSpec("gzip"), quickSpec("gcc")}
	runMatrix(t, tsA.URL, specs)

	// The dying peer promises the full entry, sends half, and cuts the
	// TCP connection — exactly what a SIGKILL mid-write looks like on the
	// wire.
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := cacheA.GetRaw(path.Base(r.URL.Path))
		if !ok {
			http.NotFound(w, r)
			return
		}
		entryHeaders(w, body)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer dying.Close()

	local := openTestCache(t)
	tiered, err := resultcache.NewTiered(resultcache.TieredConfig{
		Local: local,
		Peers: []resultcache.Peer{NewCachePeer(dying.URL, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	srvB := newTestServer(t, ServerConfig{Workers: 2, Cache: tiered})
	tsB := httptest.NewServer(srvB)
	defer func() { srvB.Close(); tsB.Close() }()

	got := runMatrix(t, tsB.URL, specs[:1])
	for id, res := range got {
		if want := localBytes(t, specs[0]); res != want {
			t.Errorf("cell %s diverged after mid-fetch peer death", id)
		}
	}
	if srvB.Executed() != 1 {
		t.Fatalf("executed %d cells, want 1 local fallback", srvB.Executed())
	}
	if st := tiered.Stats(); st.PeerErrors == 0 {
		t.Fatal("mid-fetch death left no peer-error trace in the counters")
	}

	// Now the peer is gone for good: connection refused must degrade the
	// same way.
	dying.Close()
	got = runMatrix(t, tsB.URL, specs[1:])
	for id, res := range got {
		if want := localBytes(t, specs[1]); res != want {
			t.Errorf("cell %s diverged with the peer fully dead", id)
		}
	}
	if srvB.Executed() != 2 {
		t.Fatalf("executed %d cells, want 2 local fallbacks", srvB.Executed())
	}
}

// TestChaosPeerCorruptEntry points an instance at two poisoned peers —
// one serving well-hashed garbage (decode must fail), one serving a
// truncated body under the full body's hash (re-hash must fail) — and
// requires a byte-identical local fallback with both failures counted.
func TestChaosPeerCorruptEntry(t *testing.T) {
	t.Parallel()
	cacheA := openTestCache(t)
	srvA := newTestServer(t, ServerConfig{Workers: 2, Cache: cacheA})
	tsA := httptest.NewServer(srvA)
	defer func() { srvA.Close(); tsA.Close() }()
	spec := quickSpec("swim")
	runMatrix(t, tsA.URL, []experiments.JobSpec{spec})

	// Garbage that hashes honestly: the transfer verifies, the decode
	// must not.
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := []byte(`{"version":0,"result":null,"flipped":"bits"}`)
		entryHeaders(w, body)
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}))
	defer corrupt.Close()

	// A truncated body under the intact body's hash: the re-hash fails.
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := cacheA.GetRaw(path.Base(r.URL.Path))
		if !ok {
			http.NotFound(w, r)
			return
		}
		entryHeaders(w, body) // hash of the FULL body...
		w.WriteHeader(http.StatusOK)
		w.Write(body[:len(body)/2]) // ...over half of it
	}))
	defer lying.Close()

	local := openTestCache(t)
	tiered, err := resultcache.NewTiered(resultcache.TieredConfig{
		Local: local,
		Peers: []resultcache.Peer{NewCachePeer(corrupt.URL, nil), NewCachePeer(lying.URL, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	srvB := newTestServer(t, ServerConfig{Workers: 2, Cache: tiered})
	tsB := httptest.NewServer(srvB)
	defer func() { srvB.Close(); tsB.Close() }()

	got := runMatrix(t, tsB.URL, []experiments.JobSpec{spec})
	for id, res := range got {
		if want := localBytes(t, spec); res != want {
			t.Errorf("cell %s diverged behind poisoned peers", id)
		}
	}
	if srvB.Executed() != 1 {
		t.Fatalf("executed %d cells, want 1 local fallback", srvB.Executed())
	}
	if st := tiered.Stats(); st.PeerErrors < 2 {
		t.Fatalf("peer errors = %d, want both poisoned peers counted", st.PeerErrors)
	}
	// Nothing poisoned may have reached the local tier before the real
	// result landed; the stored entry must round-trip to the real result.
	if res, ok := local.Get(spec.CacheKey()); !ok {
		t.Fatal("local tier missing the computed result")
	} else if b, _ := json.Marshal(res); mustCompact(t, b) != localBytes(t, spec) {
		t.Fatal("local tier holds a poisoned entry")
	}

	// Peers pull, nobody pushes: there is no PUT /v1/cache route, so even
	// a well-formed, honestly hashed entry is refused by method and
	// leaves no trace in the store.
	body, ok := cacheA.GetRaw(spec.CacheKey())
	if !ok {
		t.Fatal("server A holds no raw entry to push")
	}
	req, _ := http.NewRequest(http.MethodPut, tsB.URL+"/v1/cache/"+quickSpec("mcf").CacheKey(),
		bytes.NewReader(body))
	req.Header.Set(CacheFormatHeader, strconv.Itoa(resultcache.FormatVersion))
	sum := sha256.Sum256(body)
	req.Header.Set(CacheSumHeader, hex.EncodeToString(sum[:]))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/cache returned %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
	if _, ok := local.Get(quickSpec("mcf").CacheKey()); ok {
		t.Fatal("refused PUT still landed in the store")
	}
}
