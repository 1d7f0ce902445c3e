// Package resultcache persists simulation results so repeated experiment
// invocations skip work they have already done. Simulations are
// deterministic (DESIGN.md §5): a result is fully determined by the machine
// configuration, the run-spec key (which fixes the policy, monitors, and
// injection options), the benchmark, and the instruction budget — so those
// inputs, plus a format version, form a content address.
//
// The package is organized around the small Store interface (Get/Put/
// Stats). Cache is the disk implementation: a flat directory of JSON
// entries named by the SHA-256 of the canonical key material. Writes are
// atomic (temp file + rename into place), so concurrent processes sharing
// a cache directory can only ever observe complete entries. Reads are
// corruption-tolerant: an unreadable, malformed, or version-mismatched
// entry is treated as a miss (and removed) so the caller recomputes
// instead of crashing. Tiered stacks a Store over remote peers (see
// tiered.go): local first, then verified peer fetch, so a fleet of dmdcd
// instances deduplicates simulation work globally.
//
// Invalidation: bump FormatVersion whenever simulator semantics change in
// a way that alters results (new stats, timing fixes, energy recalibration).
// Old entries become unreachable (the version participates in the key) and
// are rejected even if addressed directly (the version is also stored in
// the entry body).
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"dmdc/internal/config"
	"dmdc/internal/core"
)

// FormatVersion identifies the cache entry format AND the simulator
// semantics the cached results were produced under. Bump it whenever a
// change to the simulator, energy model, workloads, or stats would make
// previously cached results stale.
//
// History:
//
//	1 — initial format (PR 1)
//	2 — soundness layer: Run reports errors instead of panicking, the
//	    KeySpec gained the Faults field, and faulted runs add the
//	    faults_injected stat (PR 2)
const FormatVersion = 2

// entryExt is the suffix of cache entry files.
const entryExt = ".json"

// KeySpec is the canonical key material for one cached result.
type KeySpec struct {
	// Version is filled in by Key; callers leave it zero.
	Version int `json:"version"`
	// Machine is the full machine configuration (all fields exported,
	// so the JSON encoding captures every sizing parameter).
	Machine config.Machine `json:"machine"`
	// RunKey is the experiment run-spec key (e.g. "dmdc-global-config2").
	// It determines the policy factory, monitors, and injection options,
	// which are code, not data — the key string stands in for them.
	RunKey string `json:"run_key"`
	// Benchmark is the workload name.
	Benchmark string `json:"benchmark"`
	// Insts is the committed-instruction budget.
	Insts uint64 `json:"insts"`
	// Faults is the canonical string form of the fault-injection campaign
	// (soundness.FaultSpec.String()), empty for clean runs. Faults perturb
	// timing, so faulted and clean results must never share an address.
	Faults string `json:"faults,omitempty"`
	// CheckpointRef is the hex SHA-256 of the checkpoint a sampled-mode
	// interval job restores from, empty for from-reset runs. The blob
	// fully determines the restored state, so its hash (plus the interval
	// budget in Insts) addresses the interval's result. omitempty keeps
	// every pre-checkpoint key byte-identical.
	CheckpointRef string `json:"checkpoint_ref,omitempty"`
}

// Key returns the content address for a KeySpec: the hex SHA-256 of its
// canonical JSON encoding with the current FormatVersion.
func Key(ks KeySpec) string {
	ks.Version = FormatVersion
	b, err := json.Marshal(ks)
	if err != nil {
		// KeySpec is a closed struct of marshalable fields; this cannot
		// fail at runtime.
		panic(fmt.Sprintf("resultcache: marshal key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// entry is the on-disk (and on-wire) representation of one cached result.
type entry struct {
	Version int          `json:"version"`
	Result  *core.Result `json:"result"`
}

// EncodeEntry serializes a result into the canonical entry encoding used
// both on disk and on the peer cache wire protocol (GET /v1/cache/{key}).
func EncodeEntry(r *core.Result) ([]byte, error) {
	b, err := json.Marshal(entry{Version: FormatVersion, Result: r})
	if err != nil {
		return nil, fmt.Errorf("resultcache: marshal entry: %w", err)
	}
	return b, nil
}

// ErrIncompleteEntry reports an entry that decodes cleanly but lacks a
// part every simulation result has: the result itself or its stats.
// Serving one would hand callers a result whose first stats lookup
// dereferences nil.
var ErrIncompleteEntry = errors.New("resultcache: incomplete entry")

// DecodeEntry parses an entry encoding, failing closed on malformed bodies
// and on any format-version mismatch: a result produced under different
// simulator semantics must never be served as current. An entry missing
// its result or its stats fails with an error wrapping ErrIncompleteEntry.
func DecodeEntry(b []byte) (*core.Result, error) {
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("resultcache: decode entry: %w", err)
	}
	if e.Version != FormatVersion {
		return nil, fmt.Errorf("resultcache: entry format version %d, want %d", e.Version, FormatVersion)
	}
	if e.Result == nil {
		return nil, fmt.Errorf("%w: no result", ErrIncompleteEntry)
	}
	if e.Result.Stats == nil {
		return nil, fmt.Errorf("%w: result has no stats", ErrIncompleteEntry)
	}
	return e.Result, nil
}

// Stats is a point-in-time snapshot of a Store's counters. The Local*/Peer*/
// Negative* fields are only populated by stores with multiple tiers; a plain
// disk Cache reports Hits/Misses/WriteErrors and leaves the rest zero.
type Stats struct {
	// Hits counts Gets answered from any tier.
	Hits uint64 `json:"hits"`
	// Misses counts Gets no tier could answer.
	Misses uint64 `json:"misses"`
	// WriteErrors counts failed Puts (recoverable: the result is simply
	// recomputed next time).
	WriteErrors uint64 `json:"write_errors"`
	// LocalHits counts Gets answered by the local tier of a Tiered store.
	LocalHits uint64 `json:"local_hits,omitempty"`
	// PeerHits counts Gets answered by a peer fetch.
	PeerHits uint64 `json:"peer_hits,omitempty"`
	// PeerErrors counts failed or rejected peer fetches (network errors,
	// hash mismatches, version skew) — each one fails closed to a miss.
	PeerErrors uint64 `json:"peer_errors,omitempty"`
	// NegativeHits counts Gets short-circuited by negative-lookup backoff.
	NegativeHits uint64 `json:"negative_hits,omitempty"`
}

// Store is the result cache abstraction the rest of the system programs
// against: the disk Cache, the fleet Tiered store, and test fakes all
// implement it. Implementations must be safe for concurrent use.
//
// Get returns the cached result for a content-addressed key, or
// (nil, false) on a miss; it must fail closed (miss, never a wrong result)
// on corruption or version skew. Put stores a result; failures are
// recoverable and surface through Stats().WriteErrors.
type Store interface {
	Get(key string) (*core.Result, bool)
	Put(key string, r *core.Result) error
	Stats() Stats
}

// Cache is a content-addressed on-disk result store. All methods are safe
// for concurrent use, including by multiple processes sharing a directory.
type Cache struct {
	dir string

	hits      atomic.Uint64
	misses    atomic.Uint64
	writeErrs atomic.Uint64
}

// Open creates (if needed) and opens a cache rooted at dir.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("resultcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path maps a key to its entry file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+entryExt)
}

// Get returns the cached result for key, or (nil, false) on a miss. A
// corrupted or version-mismatched entry counts as a miss and is removed so
// the recomputed result can replace it.
func (c *Cache) Get(key string) (*core.Result, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	r, err := DecodeEntry(b)
	if err != nil {
		os.Remove(c.path(key)) // bad entry: recompute, don't crash
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return r, true
}

// GetRaw returns the verbatim entry encoding for key, for serving to peers.
// Unlike Get it does not decode or validate the body (the fetching side
// verifies), and it does not touch the hit/miss counters: peer traffic is
// accounted on the requesting instance.
func (c *Cache) GetRaw(key string) ([]byte, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	return b, true
}

// Put stores a result under key. The write is atomic: a reader (in this or
// any other process) sees either no entry or a complete one.
func (c *Cache) Put(key string, r *core.Result) error {
	b, err := EncodeEntry(r)
	if err != nil {
		c.writeErrs.Add(1)
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		c.writeErrs.Add(1)
		return fmt.Errorf("resultcache: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		c.writeErrs.Add(1)
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		c.writeErrs.Add(1)
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		c.writeErrs.Add(1)
		return fmt.Errorf("resultcache: %w", err)
	}
	return nil
}

// Clear removes every cache entry (and stray temp files), leaving the
// directory in place.
func (c *Cache) Clear() error {
	names, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	var firstErr error
	for _, de := range names {
		n := de.Name()
		if !strings.HasSuffix(n, entryExt) && !strings.HasSuffix(n, ".tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(c.dir, n)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("resultcache: %w", err)
		}
	}
	return firstErr
}

// Len counts the entries currently on disk.
func (c *Cache) Len() (int, error) {
	names, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, fmt.Errorf("resultcache: %w", err)
	}
	n := 0
	for _, de := range names {
		if strings.HasSuffix(de.Name(), entryExt) {
			n++
		}
	}
	return n, nil
}

// Hits returns the number of successful Gets since Open.
func (c *Cache) Hits() uint64 { return c.hits.Load() }

// Misses returns the number of failed Gets since Open.
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// WriteErrors returns the number of failed Puts since Open. Put failures
// are recoverable (the result is simply recomputed next time), so callers
// typically surface this as a counter rather than aborting.
func (c *Cache) WriteErrors() uint64 { return c.writeErrs.Load() }

// Stats snapshots the cache's counters, implementing Store.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		WriteErrors: c.writeErrs.Load(),
	}
}
