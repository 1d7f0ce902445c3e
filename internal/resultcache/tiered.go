package resultcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dmdc/internal/core"
)

// ErrPeerMiss is the sentinel a Peer returns when it does not hold the
// requested entry. Any other error counts as a peer failure (and increments
// Stats().PeerErrors); a miss is the expected steady-state answer.
var ErrPeerMiss = errors.New("resultcache: peer miss")

// Peer is one remote cache an instance can fetch entries from. FetchEntry
// returns the raw entry encoding plus the peer's claimed hex SHA-256 of
// that body; the caller re-hashes and refuses mismatches, so a corrupt or
// truncated transfer can never poison the local tier. Implementations must
// honor ctx cancellation and return ErrPeerMiss for absent keys.
type Peer interface {
	Name() string
	FetchEntry(ctx context.Context, key string) (body []byte, sum string, err error)
}

// TieredConfig configures a Tiered store.
type TieredConfig struct {
	// Local is the first-tier store, usually a disk *Cache. Required.
	// Results fetched from peers are written back into it.
	Local Store
	// Peers are tried in order after a local miss. Empty is allowed: the
	// Tiered store then degrades to a pass-through over Local.
	Peers []Peer
}

const (
	// fetchTimeout bounds one peer fetch.
	fetchTimeout = 10 * time.Second
	// maxConcurrentFetches bounds total in-flight peer fetches across all
	// keys, so a cold matrix cannot stampede the fleet.
	maxConcurrentFetches = 4
	// negativeTTL is how long a fleet-wide miss suppresses repeat peer
	// lookups for the same key. Local Gets still happen, and a Put clears
	// the suppression.
	negativeTTL = 30 * time.Second
)

// Tiered is a Store that answers Gets from a local tier first and falls
// back to fetching the entry from peers, verifying and writing back into
// the local tier on success. Concurrent Gets for the same key are
// singleflighted so a cold key costs at most one fleet round-trip; keys the
// whole fleet misses are negatively cached for negativeTTL so steady-state
// cold matrices don't hammer peers with hopeless lookups.
type Tiered struct {
	local    Store
	peers    []Peer
	sem      chan struct{}
	now      func() time.Time // test hook
	hits     atomic.Uint64    // every Get answered, singleflight waiters included
	peerHits atomic.Uint64    // one per verified peer fetch
	peerErrs atomic.Uint64
	negHits  atomic.Uint64
	localHit atomic.Uint64
	misses   atomic.Uint64

	mu       sync.Mutex
	inflight map[string]*fetchCall
	negative map[string]time.Time // key -> suppress peer lookups until
}

// fetchCall is one singleflighted peer lookup.
type fetchCall struct {
	done chan struct{}
	res  *core.Result
	ok   bool
}

// NewTiered builds a Tiered store over cfg.Local and cfg.Peers.
func NewTiered(cfg TieredConfig) (*Tiered, error) {
	if cfg.Local == nil {
		return nil, errors.New("resultcache: tiered store needs a local tier")
	}
	return &Tiered{
		local:    cfg.Local,
		peers:    cfg.Peers,
		sem:      make(chan struct{}, maxConcurrentFetches),
		now:      time.Now,
		inflight: make(map[string]*fetchCall),
		negative: make(map[string]time.Time),
	}, nil
}

// Get implements Store: local tier, then (unless negatively cached) a
// singleflighted peer sweep.
func (t *Tiered) Get(key string) (*core.Result, bool) {
	if r, ok := t.local.Get(key); ok {
		t.localHit.Add(1)
		t.hits.Add(1)
		return r, true
	}
	if len(t.peers) == 0 {
		t.misses.Add(1)
		return nil, false
	}

	t.mu.Lock()
	if until, ok := t.negative[key]; ok {
		if t.now().Before(until) {
			t.mu.Unlock()
			t.negHits.Add(1)
			t.misses.Add(1)
			return nil, false
		}
		delete(t.negative, key)
	}
	if call, ok := t.inflight[key]; ok {
		t.mu.Unlock()
		<-call.done
		t.count(call.ok)
		return call.res, call.ok
	}
	call := &fetchCall{done: make(chan struct{})}
	t.inflight[key] = call
	t.mu.Unlock()

	call.res, call.ok = t.fetch(key)

	t.mu.Lock()
	delete(t.inflight, key)
	if !call.ok {
		t.negative[key] = t.now().Add(negativeTTL)
	}
	t.mu.Unlock()
	close(call.done)

	t.count(call.ok)
	return call.res, call.ok
}

// count records the outcome of one Get that waited on a peer sweep.
func (t *Tiered) count(ok bool) {
	if ok {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
}

// fetch sweeps the peers in order under the global concurrency bound,
// verifying each candidate body before accepting it. The first verified
// entry wins and is written back into the local tier.
func (t *Tiered) fetch(key string) (*core.Result, bool) {
	t.sem <- struct{}{}
	defer func() { <-t.sem }()

	for _, p := range t.peers {
		ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
		body, sum, err := p.FetchEntry(ctx, key)
		cancel()
		if err != nil {
			if !errors.Is(err, ErrPeerMiss) {
				t.peerErrs.Add(1)
			}
			continue
		}
		got := sha256.Sum256(body)
		if hex.EncodeToString(got[:]) != sum {
			t.peerErrs.Add(1) // corrupt/truncated transfer: fail closed
			continue
		}
		r, err := DecodeEntry(body)
		if err != nil {
			t.peerErrs.Add(1) // version skew or malformed body: fail closed
			continue
		}
		t.peerHits.Add(1)
		// Write-back failure is recoverable: the result is still good, the
		// next Get just fetches again. Local's own counter records it.
		_ = t.local.Put(key, r)
		return r, true
	}
	return nil, false
}

// GetRaw serves the local tier's verbatim entry bytes, when the local
// tier can produce them (a disk *Cache can). Only the local tier is
// consulted — an instance answers peers from what it holds, never by
// fanning the request out again, so peer chains cannot recurse.
func (t *Tiered) GetRaw(key string) ([]byte, bool) {
	if rg, ok := t.local.(interface {
		GetRaw(key string) ([]byte, bool)
	}); ok {
		return rg.GetRaw(key)
	}
	return nil, false
}

// Put implements Store: results land in the local tier (peers pull, we
// don't push) and clear any negative entry so the key is fetchable at once.
func (t *Tiered) Put(key string, r *core.Result) error {
	err := t.local.Put(key, r)
	t.mu.Lock()
	delete(t.negative, key)
	t.mu.Unlock()
	return err
}

// Stats implements Store. Hits/Misses/WriteErrors aggregate across tiers;
// the tier-specific counters attribute each hit.
func (t *Tiered) Stats() Stats {
	s := t.local.Stats()
	return Stats{
		Hits:         t.hits.Load(),
		Misses:       t.misses.Load(),
		WriteErrors:  s.WriteErrors,
		LocalHits:    t.localHit.Load(),
		PeerHits:     t.peerHits.Load(),
		PeerErrors:   t.peerErrs.Load(),
		NegativeHits: t.negHits.Load(),
	}
}
