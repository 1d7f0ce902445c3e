package resultcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmdc/internal/core"
)

// fakePeer serves canned entry bodies and counts fetches.
type fakePeer struct {
	name    string
	mu      sync.Mutex
	entries map[string][]byte // raw bodies
	sums    map[string]string // claimed hashes (may lie, for corruption tests)
	err     error             // returned for every fetch when set
	fetches atomic.Int64
	delay   time.Duration
}

func newFakePeer(name string) *fakePeer {
	return &fakePeer{name: name, entries: map[string][]byte{}, sums: map[string]string{}}
}

func (p *fakePeer) Name() string { return p.name }

// put stores a well-formed entry with a truthful hash.
func (p *fakePeer) put(t *testing.T, key string, r *core.Result) {
	t.Helper()
	body, err := EncodeEntry(r)
	if err != nil {
		t.Fatal(err)
	}
	p.putRaw(key, body)
}

// putRaw stores body verbatim under key, with a truthful hash.
func (p *fakePeer) putRaw(key string, body []byte) {
	sum := sha256.Sum256(body)
	p.mu.Lock()
	p.entries[key] = body
	p.sums[key] = hex.EncodeToString(sum[:])
	p.mu.Unlock()
}

func (p *fakePeer) FetchEntry(ctx context.Context, key string) ([]byte, string, error) {
	p.fetches.Add(1)
	if p.delay > 0 {
		select {
		case <-time.After(p.delay):
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return nil, "", p.err
	}
	body, ok := p.entries[key]
	if !ok {
		return nil, "", ErrPeerMiss
	}
	return body, p.sums[key], nil
}

func newTestTiered(t *testing.T, peers ...Peer) (*Tiered, *Cache) {
	t.Helper()
	local := openCache(t, t.TempDir())
	ts, err := NewTiered(TieredConfig{Local: local, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	return ts, local
}

func TestTieredLocalFirst(t *testing.T) {
	peer := newFakePeer("b")
	ts, local := newTestTiered(t, peer)
	key := testKey()
	if err := local.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.Get(key); !ok {
		t.Fatal("want local hit")
	}
	if n := peer.fetches.Load(); n != 0 {
		t.Fatalf("peer fetched %d times for a local hit", n)
	}
	s := ts.Stats()
	if s.LocalHits != 1 || s.PeerHits != 0 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want one local hit", s)
	}
}

func TestTieredPeerFetchAndWriteback(t *testing.T) {
	peer := newFakePeer("b")
	ts, local := newTestTiered(t, peer)
	key := testKey()
	want := testResult()
	peer.put(t, key, want)

	got, ok := ts.Get(key)
	if !ok {
		t.Fatal("want peer hit")
	}
	if got.Cycles != want.Cycles || got.Benchmark != want.Benchmark {
		t.Fatalf("peer result mismatch: %+v", got)
	}
	// Write-back: the entry must now live in the local tier.
	if _, ok := local.Get(key); !ok {
		t.Fatal("peer result not written back to local tier")
	}
	// Second Get is local; the peer is not consulted again.
	if _, ok := ts.Get(key); !ok {
		t.Fatal("want local hit after writeback")
	}
	if n := peer.fetches.Load(); n != 1 {
		t.Fatalf("peer fetched %d times, want 1", n)
	}
	s := ts.Stats()
	if s.PeerHits != 1 || s.LocalHits != 1 || s.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 peer + 1 local hit", s)
	}
}

func TestTieredCorruptBodyFailsClosed(t *testing.T) {
	peer := newFakePeer("b")
	ts, local := newTestTiered(t, peer)
	key := testKey()
	peer.put(t, key, testResult())
	// Truncate the body but keep the original (now wrong) hash claim.
	peer.mu.Lock()
	peer.entries[key] = peer.entries[key][:len(peer.entries[key])/2]
	peer.mu.Unlock()

	if _, ok := ts.Get(key); ok {
		t.Fatal("corrupt peer body must not produce a hit")
	}
	if _, ok := local.Get(key); ok {
		t.Fatal("corrupt peer body must not be written back")
	}
	if s := ts.Stats(); s.PeerErrors != 1 {
		t.Fatalf("stats = %+v, want PeerErrors=1", s)
	}
}

func TestTieredLyingHashFailsClosed(t *testing.T) {
	peer := newFakePeer("b")
	ts, _ := newTestTiered(t, peer)
	key := testKey()
	peer.put(t, key, testResult())
	// The body is a valid entry but the hash claim doesn't match: refuse it.
	peer.mu.Lock()
	peer.sums[key] = "deadbeef"
	peer.mu.Unlock()
	if _, ok := ts.Get(key); ok {
		t.Fatal("hash-mismatched peer body must not produce a hit")
	}
	if s := ts.Stats(); s.PeerErrors != 1 {
		t.Fatalf("stats = %+v, want PeerErrors=1", s)
	}
}

func TestTieredVersionSkewFailsClosed(t *testing.T) {
	peer := newFakePeer("b")
	ts, local := newTestTiered(t, peer)
	key := testKey()
	// A well-hashed body from a peer running a different cache format:
	// transfer verifies, decode refuses.
	peer.putRaw(key, malformedEntries()["newer version"])

	if _, ok := ts.Get(key); ok {
		t.Fatal("version-skewed peer entry must not produce a hit")
	}
	if _, ok := local.Get(key); ok {
		t.Fatal("version-skewed peer entry must not be written back")
	}
	if s := ts.Stats(); s.PeerErrors != 1 {
		t.Fatalf("stats = %+v, want PeerErrors=1", s)
	}
}

// TestTieredPreviousBuildPeerFailsClosed: a peer running a build from
// before the binary entries serves the JSON entry encoding under the same
// FormatVersion and an honest hash. The fetch fails closed as one peer
// error, and the cell is recomputed and served locally from then on.
func TestTieredPreviousBuildPeerFailsClosed(t *testing.T) {
	peer := newFakePeer("old")
	ts, local := newTestTiered(t, peer)
	key := testKey()
	peer.putRaw(key, []byte(jsonEntry))

	if _, ok := ts.Get(key); ok {
		t.Fatal("a previous build's JSON entry produced a hit")
	}
	if s := ts.Stats(); s.PeerErrors != 1 || s.PeerHits != 0 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 peer error and 1 miss", s)
	}
	if _, ok := local.Get(key); ok {
		t.Fatal("a previous build's JSON entry was written back")
	}
	// The caller recomputes and stores the cell; the next Get is local.
	if err := ts.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	if r, ok := ts.Get(key); !ok || r.Cycles != 1234 {
		t.Fatalf("recomputed cell not served: %v, %v", r, ok)
	}
	if s := ts.Stats(); s.LocalHits != 1 || s.PeerErrors != 1 || peer.fetches.Load() != 1 {
		t.Fatalf("stats = %+v after %d fetches, want the recomputed cell served locally", s, peer.fetches.Load())
	}
}

func TestTieredPeerErrorFallsThrough(t *testing.T) {
	bad := newFakePeer("bad")
	bad.err = errors.New("connection refused")
	good := newFakePeer("good")
	key := testKey()
	good.put(t, key, testResult())

	ts, _ := newTestTiered(t, bad, good)
	if _, ok := ts.Get(key); !ok {
		t.Fatal("want hit from second peer after first errors")
	}
	s := ts.Stats()
	if s.PeerErrors != 1 || s.PeerHits != 1 {
		t.Fatalf("stats = %+v, want 1 peer error + 1 peer hit", s)
	}
}

func TestTieredNegativeBackoff(t *testing.T) {
	peer := newFakePeer("b")
	ts, _ := newTestTiered(t, peer)
	now := time.Now()
	ts.now = func() time.Time { return now }
	key := testKey()

	if _, ok := ts.Get(key); ok {
		t.Fatal("want fleet-wide miss")
	}
	// Repeat lookups inside the TTL must not touch the peer.
	for i := 0; i < 5; i++ {
		if _, ok := ts.Get(key); ok {
			t.Fatal("want miss")
		}
	}
	if n := peer.fetches.Load(); n != 1 {
		t.Fatalf("peer fetched %d times, want 1 (negative backoff)", n)
	}
	if s := ts.Stats(); s.NegativeHits != 5 {
		t.Fatalf("stats = %+v, want NegativeHits=5", s)
	}

	// After the TTL expires the peer is consulted again.
	now = now.Add(time.Minute)
	peer.put(t, key, testResult())
	if _, ok := ts.Get(key); !ok {
		t.Fatal("want peer hit after negative TTL expiry")
	}
}

func TestTieredPutClearsNegative(t *testing.T) {
	peer := newFakePeer("b")
	ts, _ := newTestTiered(t, peer)
	key := testKey()
	if _, ok := ts.Get(key); ok {
		t.Fatal("want miss")
	}
	if err := ts.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.Get(key); !ok {
		t.Fatal("want local hit right after Put, negative entry cleared")
	}
}

func TestTieredSingleflight(t *testing.T) {
	peer := newFakePeer("b")
	peer.delay = 50 * time.Millisecond
	key := testKey()
	peer.put(t, key, testResult())
	ts, _ := newTestTiered(t, peer)

	const n = 16
	var wg sync.WaitGroup
	hits := atomic.Int64{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := ts.Get(key); ok {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if hits.Load() != n {
		t.Fatalf("%d/%d concurrent Gets hit", hits.Load(), n)
	}
	// All concurrent Gets share one fetch. Allow 2 in case a goroutine
	// races in after the flight completes but before its local writeback
	// is visible — the invariant is "far fewer than n", not exactly 1.
	if f := peer.fetches.Load(); f > 2 {
		t.Fatalf("peer fetched %d times for %d concurrent Gets, want singleflight", f, n)
	}
}

// TestTieredStatsCountWaiters: Gets that wait on another Get's peer fetch
// and receive its result are hits like any other, while the fetch itself
// counts once in PeerHits.
func TestTieredStatsCountWaiters(t *testing.T) {
	peer := newFakePeer("b")
	peer.delay = 200 * time.Millisecond
	key := testKey()
	peer.put(t, key, testResult())
	ts, _ := newTestTiered(t, peer)

	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := ts.Get(key); !ok {
				t.Error("concurrent Get missed")
			}
		}()
	}
	wg.Wait()
	st := ts.Stats()
	if st.Hits != n || st.Misses != 0 {
		t.Fatalf("Stats() = %d hits / %d misses for %d answered Gets", st.Hits, st.Misses, n)
	}
	if f := uint64(peer.fetches.Load()); st.PeerHits != f {
		t.Fatalf("PeerHits = %d for %d verified fetches", st.PeerHits, f)
	}
}

func TestTieredNoPeersIsPassThrough(t *testing.T) {
	ts, local := newTestTiered(t)
	key := testKey()
	if _, ok := ts.Get(key); ok {
		t.Fatal("want miss")
	}
	if err := ts.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.Get(key); !ok {
		t.Fatal("want hit")
	}
	if _, ok := local.Get(key); !ok {
		t.Fatal("want entry in local tier")
	}
}

func TestNewTieredRequiresLocal(t *testing.T) {
	if _, err := NewTiered(TieredConfig{}); err == nil {
		t.Fatal("want error for missing local tier")
	}
}

// Store conformance: both implementations satisfy the interface.
var (
	_ Store = (*Cache)(nil)
	_ Store = (*Tiered)(nil)
)
