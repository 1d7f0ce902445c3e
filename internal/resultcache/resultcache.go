// Package resultcache persists simulation results so repeated experiment
// invocations skip work they have already done. Simulations are
// deterministic (DESIGN.md §5): a result is fully determined by the machine
// configuration, the run-spec key (which fixes the policy, monitors, and
// injection options), the benchmark, and the instruction budget — so those
// inputs, plus a format version, form a content address.
//
// The package is organized around the small Store interface (Get/Put/
// Stats). Cache is the disk implementation, and it is log-structured: each
// Cache appends its entries to one segment file it owns (seg-*.pack), and
// an in-memory index maps every key to its frame. A segment starts with an
// 8-byte magic naming the layout version (a segment with any other magic
// is skipped), then holds one frame per Put in the journal's framing
// (jobstore.AppendFrame):
//
//	[4B little-endian payload length][4B CRC-32C of payload][key '\n' entry]
//
// where entry is the EncodeEntry encoding — the bytes GetRaw serves to
// peers. A Put is one write to a file that already exists, and a hit is
// one positioned read.
//
// Open builds the index by scanning every segment in the directory. A miss
// refreshes it, scanning only segments created, and bytes appended, since
// the last look, so Caches in other processes sharing the directory see
// each other's entries without reopening. A Cache keeps at most one
// descriptor open, its own segment's, however many segments the directory
// holds.
//
// Reads fail closed. A frame that is cut short or fails its checksum ends
// the scan of its segment at that offset, and the next refresh retries
// from there. A Cache whose write fails abandons its segment and the next
// Put starts a new one, so a torn frame — from a failed write or a crash
// mid-write — can only be the last frame of a segment. Every read
// re-checks the frame's checksum and key and runs DecodeEntry; an entry
// failing any check reads as a miss and leaves the index until a later Put
// replaces it. Nothing is fsynced: a lost entry only costs a recompute.
// Tiered stacks a Store over remote peers (see tiered.go): local first,
// then verified peer fetch, so a fleet of dmdcd instances deduplicates
// simulation work globally.
//
// Entries from before the segment layout (one <key>.json file each) are
// not read, so an existing cache directory re-runs cold once after the
// upgrade; Clear deletes them.
//
// Invalidation: bump FormatVersion whenever simulator semantics change in
// a way that alters results (new stats, timing fixes, energy recalibration).
// Old entries become unreachable (the version participates in the key) and
// are rejected even if addressed directly (the version is also stored in
// the entry body).
package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/jobstore"
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

const (
	// segMagic opens every segment file and names the layout version.
	segMagic = "dmdcseg1"
	// segPrefix and segExt bracket segment file names (seg-*.pack).
	segPrefix, segExt = "seg-", ".pack"
	// legacyExt names the one-file-per-entry layout's files, which Clear
	// still deletes.
	legacyExt = ".json"
)

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
	// PeerHits counts verified peer fetches. Concurrent Gets that share
	// one fetch count once here, and each in Hits.
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

	mu    sync.Mutex
	index map[string]frameLoc
	segs  map[string]*segment // every segment seen in dir, by file name
	// w is the segment file this Cache appends to and wseg its entry: nil
	// until the first Put, and again after a failed write or read abandons
	// it. Only this Cache writes to it.
	w    *os.File
	wseg *segment

	hits      atomic.Uint64
	misses    atomic.Uint64
	writeErrs atomic.Uint64
}

// segment is one segment file and how far the index has taken it in.
type segment struct {
	name string
	// next is the offset just past the last frame the index holds (0
	// until the magic is checked); for the Cache's own segment it is the
	// append offset. seen is the file size at the last scan, so a segment
	// nobody appended to is not read again.
	next, seen int64
	foreign    bool // wrong magic: never read
}

// frameLoc locates one key's frame: n bytes at off in seg.
type frameLoc struct {
	seg *segment
	off int64
	n   int
}

// Open creates (if needed) and opens a cache rooted at dir, indexing every
// segment already there.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("resultcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	c := &Cache{dir: dir, index: make(map[string]frameLoc), segs: make(map[string]*segment)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.refreshLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Get returns the cached result for key, or (nil, false) on a miss. A
// corrupted or version-mismatched entry counts as a miss, so the caller
// recomputes and its Put replaces the entry.
func (c *Cache) Get(key string) (*core.Result, bool) {
	_, r, ok := c.load(key)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return r, true
}

// GetRaw returns the verbatim entry encoding for key, for serving to peers.
// It serves only entries that pass every check Get makes, and it does not
// touch the hit/miss counters: peer traffic is accounted on the requesting
// instance.
func (c *Cache) GetRaw(key string) ([]byte, bool) {
	b, _, ok := c.load(key)
	return b, ok
}

// load reads key's entry, refreshing the index first when it lacks the
// key, and verifies it: the frame's checksum and key, then DecodeEntry. It
// returns the entry encoding and the decoded result. An entry failing any
// check leaves the index.
func (c *Cache) load(key string) ([]byte, *core.Result, bool) {
	c.mu.Lock()
	loc, ok := c.index[key]
	if !ok {
		// An unreadable directory is one more reason to miss.
		_ = c.refreshLocked()
		loc, ok = c.index[key]
	}
	if !ok {
		c.mu.Unlock()
		return nil, nil, false
	}
	body, err := c.readLocked(key, loc)
	if err != nil {
		c.dropLocked(key, loc)
		if loc.seg == c.wseg {
			// Frames appended behind a bad one would not scan: leave the
			// segment to the frames before it, so the recomputed Put is
			// visible to every other Cache.
			c.abandonLocked()
		}
		c.mu.Unlock()
		return nil, nil, false
	}
	c.mu.Unlock()
	r, err := DecodeEntry(body)
	if err != nil {
		c.mu.Lock()
		c.dropLocked(key, loc)
		c.mu.Unlock()
		return nil, nil, false
	}
	return body, r, true
}

// readLocked reads the frame at loc and returns its entry encoding, failing
// when the frame is short, fails its checksum or holds another key.
func (c *Cache) readLocked(key string, loc frameLoc) ([]byte, error) {
	f := c.w
	if loc.seg != c.wseg {
		var err error
		if f, err = os.Open(filepath.Join(c.dir, loc.seg.name)); err != nil {
			return nil, err
		}
		defer f.Close()
	}
	b := make([]byte, loc.n)
	if _, err := f.ReadAt(b, loc.off); err != nil {
		return nil, err
	}
	payload, n, err := jobstore.ReadFrame(b)
	if err != nil {
		return nil, err
	}
	k, body, ok := bytes.Cut(payload, []byte{'\n'})
	if n != loc.n || !ok || string(k) != key {
		return nil, fmt.Errorf("resultcache: frame at %s:%d does not hold key %s", loc.seg.name, loc.off, key)
	}
	return body, nil
}

// dropLocked removes key from the index unless a Put has moved it since
// loc was looked up.
func (c *Cache) dropLocked(key string, loc frameLoc) {
	if c.index[key] == loc {
		delete(c.index, key)
	}
}

// refreshLocked takes into the index the segments created, and the frames
// appended to known segments, since the last look. The Cache's own segment
// needs no scan: the index already holds every frame in it.
func (c *Cache) refreshLocked() error {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segExt) {
			continue
		}
		s := c.segs[name]
		if s == nil {
			s = &segment{name: name}
			c.segs[name] = s
		}
		if s == c.wseg || s.foreign {
			continue
		}
		if fi, err := de.Info(); err == nil && fi.Size() != s.seen {
			c.scanLocked(s, fi.Size())
		}
	}
	return nil
}

// scanLocked indexes the frames in s's first size bytes that the index
// has not taken in yet. A frame that is cut short or fails its checksum
// ends the scan at its offset; the next scan retries from there once the
// file has grown.
func (c *Cache) scanLocked(s *segment, size int64) {
	if size < s.next {
		return // truncated behind the index: its frames there read as misses
	}
	f, err := os.Open(filepath.Join(c.dir, s.name))
	if err != nil {
		return // removed since it was listed
	}
	defer f.Close()
	b := make([]byte, size-s.next)
	if _, err := f.ReadAt(b, s.next); err != nil {
		return
	}
	s.seen = size
	c.indexFrames(s, b)
}

// indexFrames indexes the frames in b, the bytes of s from s.next on, and
// advances s.next past the last whole, checksummed one. A checksummed frame
// without a key separator is stepped over unindexed: its boundaries are
// sound, only its content is not.
func (c *Cache) indexFrames(s *segment, b []byte) {
	pos := 0
	if s.next == 0 {
		if len(b) < len(segMagic) {
			return // still being created
		}
		if string(b[:len(segMagic)]) != segMagic {
			s.foreign = true
			return
		}
		pos = len(segMagic)
	}
	for {
		payload, n, err := jobstore.ReadFrame(b[pos:])
		if err != nil {
			break
		}
		if k, _, ok := bytes.Cut(payload, []byte{'\n'}); ok {
			c.index[string(k)] = frameLoc{seg: s, off: s.next + int64(pos), n: n}
		}
		pos += n
	}
	s.next += int64(pos)
}

// Put stores a result under key with one write to the Cache's segment,
// creating the segment on the Cache's first Put. A reader (in this or any
// other process) sees either no entry or a complete one.
func (c *Cache) Put(key string, r *core.Result) error {
	if strings.IndexByte(key, '\n') >= 0 {
		c.writeErrs.Add(1)
		return fmt.Errorf("resultcache: key %q contains a newline", key)
	}
	b, err := EncodeEntry(r)
	if err != nil {
		c.writeErrs.Add(1)
		return err
	}
	payload := append(append(append(make([]byte, 0, len(key)+1+len(b)), key...), '\n'), b...)

	c.mu.Lock()
	defer c.mu.Unlock()
	var frame []byte
	if c.w == nil {
		f, err := os.CreateTemp(c.dir, segPrefix+"*"+segExt)
		if err != nil {
			c.writeErrs.Add(1)
			return fmt.Errorf("resultcache: %w", err)
		}
		c.w = f
		c.wseg = &segment{name: filepath.Base(f.Name())}
		c.segs[c.wseg.name] = c.wseg
		frame = []byte(segMagic) // the magic rides on the first frame's write
	}
	magic := len(frame)
	frame = jobstore.AppendFrame(frame, payload)
	if _, err := c.w.Write(frame); err != nil {
		// The write may have landed in part: no frame may follow it.
		c.abandonLocked()
		c.writeErrs.Add(1)
		return fmt.Errorf("resultcache: %w", err)
	}
	c.index[key] = frameLoc{seg: c.wseg, off: c.wseg.next + int64(magic), n: len(frame) - magic}
	c.wseg.next += int64(len(frame))
	return nil
}

// abandonLocked stops appending to the Cache's segment. The segment stays
// indexed; from now on it is scanned like any other Cache's, from the end
// of its last good frame.
func (c *Cache) abandonLocked() {
	c.w.Close()
	c.w, c.wseg = nil, nil
}

// Clear removes every segment, every legacy entry file and stray temp
// files, leaving the directory in place, and empties the index. It is for
// a directory no other live Cache writes to: one that already holds a
// segment would keep appending to its unlinked file.
func (c *Cache) Clear() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w != nil {
		c.abandonLocked()
	}
	c.index = make(map[string]frameLoc)
	c.segs = make(map[string]*segment)
	names, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	var firstErr error
	for _, de := range names {
		n := de.Name()
		seg := strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segExt)
		if !seg && !strings.HasSuffix(n, legacyExt) && !strings.HasSuffix(n, ".tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(c.dir, n)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("resultcache: %w", err)
		}
	}
	return firstErr
}

// Stats snapshots the cache's counters, implementing Store.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		WriteErrors: c.writeErrs.Load(),
	}
}
