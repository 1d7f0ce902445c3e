// Package jobstore persists a job queue's admissions and outcomes in a
// crash-safe append-only journal, so a restarted server resumes or
// re-queues every incomplete job instead of silently dropping it
// (DESIGN.md §12).
//
// Layout: a store directory holds a LOCK file, a MANIFEST (format +
// version, written atomically at creation, checked on every open) and a
// single `journal` file of length-prefixed, checksummed records:
//
//	[4B little-endian payload length][4B CRC-32C of payload][JSON payload]
//
// AppendFrame and ReadFrame are that framing's codec; the result cache
// (internal/resultcache) frames its segment files with them too.
//
// One Store owns a directory at a time. Open takes an exclusive flock on
// LOCK and fails with ErrLocked while any other Store holds it, in this
// process or another; the kernel drops the lock when its holder dies, so
// a crashed owner's successor opens the store at once. With one writer,
// a job contributes at most an admission and an outcome, so the journal
// only grows with admitted work and is never compacted.
//
// Replay is torn-tail tolerant: a record cut short by a crash (or
// corrupted in place) ends replay at the last good record and the file is
// truncated back to that point — corrupted bytes can lose the tail but
// can never be misread into a wrong job state. Replay is idempotent over
// duplicated records and ignores outcomes for unknown job IDs. A store
// directory written by a different format version fails closed with a
// *VersionError rather than guessing.
package jobstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FormatVersion identifies the journal record schema and framing. A store
// directory carrying any other version fails closed on Open.
//
// History:
//
//	1 — initial framing + admitted/running/done/failed lifecycle (PR 5)
//	2 — lease records (leased/released) with an owner and expiry for
//	    fleet job handoff; an older binary would silently drop them,
//	    so the version gates the whole journal (PR 10)
//	3 — admitted/done/failed only, under the directory LOCK; a binary
//	    that does not take the lock must not open a locked store
const FormatVersion = 3

const (
	manifestName = "MANIFEST"
	journalName  = "journal"
	lockName     = "LOCK"
	// maxRecordBytes bounds one record's payload; a length prefix beyond
	// it is treated as corruption, not an allocation request.
	maxRecordBytes = 16 << 20
	// headerBytes frames every record: payload length + CRC-32C.
	headerBytes = 8
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms we run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrLocked reports a store directory another open Store owns, in this
// process or another. Open wraps it with the LOCK file's path.
var ErrLocked = errors.New("jobstore: store directory is held by another owner")

// State is a job's lifecycle position as recorded in the journal.
type State string

// Lifecycle states. An admitted job is incomplete — a replay re-queues
// it. Done and Failed are its outcomes.
const (
	StateAdmitted State = "admitted"
	StateDone     State = "done"
	StateFailed   State = "failed"
)

// valid reports whether s is a known lifecycle state.
func (s State) valid() bool {
	return s == StateAdmitted || s == StateDone || s == StateFailed
}

// Record is one journal entry: a job's admission or outcome. Spec is
// opaque to the store (the server journals its wire JobSpec); it is
// required on StateAdmitted records and ignored elsewhere.
type Record struct {
	State  State           `json:"state"`
	ID     string          `json:"id"`
	Tenant string          `json:"tenant,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	// Error qualifies StateFailed.
	Error string `json:"error,omitempty"`
}

// JobRecord is one job's replayed state: the admit-time identity and the
// last state observed.
type JobRecord struct {
	ID     string
	Tenant string
	Spec   json.RawMessage
	State  State
	Error  string

	seq int // admit order; Jobs() sorts by it
}

// ReplayReport summarizes what Open recovered from an existing journal.
type ReplayReport struct {
	// Records counts fully decoded records applied (duplicates included).
	Records int
	// Jobs counts distinct jobs recovered.
	Jobs int
	// TornBytes is the length of the corrupt/torn tail that was dropped
	// and truncated away (0 for a clean journal).
	TornBytes int64
	// Ignored counts structurally valid records that changed nothing: a
	// duplicated admit or an outcome for an unknown ID.
	Ignored int
}

// VersionError reports a store directory that cannot be read safely:
// wrong or unreadable MANIFEST, or a journal with no MANIFEST at all.
// Callers must treat it as fatal — guessing at record framing across
// versions is exactly the misread the manifest exists to prevent.
type VersionError struct {
	Dir    string
	Found  int // 0 when unknown
	Want   int
	Reason string
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("jobstore: %s: %s (found version %d, this binary speaks %d)",
		e.Dir, e.Reason, e.Found, e.Want)
}

// Options shape a Store.
type Options struct {
	// Sync fsyncs the journal after every append, making each admission
	// and outcome durable before the caller proceeds. Servers want it;
	// tests that only exercise logic can leave it off.
	Sync bool
}

type manifest struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

const manifestFormat = "dmdc-jobstore"

// Store is a crash-safe journal of job admissions and outcomes. All
// methods are safe for concurrent use. A Store owns its directory until
// Close (see lockDir).
type Store struct {
	dir  string
	o    Options
	lock *os.File // holds the directory lock until Close

	mu     sync.Mutex
	f      *os.File
	size   int64
	jobs   map[string]*JobRecord
	seq    int
	closed bool
}

// Open opens (creating if needed) the store at dir and replays its
// journal. The returned report describes what was recovered; call Jobs
// for the replayed state. While another Store holds dir, Open fails with
// an error wrapping ErrLocked and writes nothing.
func Open(dir string, o Options) (*Store, *ReplayReport, error) {
	if dir == "" {
		return nil, nil, errors.New("jobstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobstore: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, o: o, lock: lock, jobs: make(map[string]*JobRecord)}
	if err := s.checkManifest(); err != nil {
		lock.Close()
		return nil, nil, err
	}
	f, err := os.OpenFile(s.path(journalName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		lock.Close()
		return nil, nil, fmt.Errorf("jobstore: %w", err)
	}
	s.f = f
	rep, err := s.replay()
	if err != nil {
		f.Close()
		lock.Close()
		return nil, nil, err
	}
	return s, rep, nil
}

// lockDir opens <dir>/LOCK and takes the store's single-owner lock on it
// (lockFile). Closing the returned file releases the lock.
func lockDir(dir string) (*os.File, error) {
	path := filepath.Join(dir, lockName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		if errors.Is(err, ErrLocked) {
			return nil, fmt.Errorf("%w: %s", ErrLocked, path)
		}
		return nil, fmt.Errorf("jobstore: lock %s: %w", path, err)
	}
	return f, nil
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// checkManifest validates an existing manifest or atomically creates one.
// A journal without a manifest, or a manifest with the wrong format or
// version, fails closed with a *VersionError.
func (s *Store) checkManifest() error {
	b, err := os.ReadFile(s.path(manifestName))
	switch {
	case err == nil:
		var m manifest
		if json.Unmarshal(b, &m) != nil || m.Format != manifestFormat {
			return &VersionError{Dir: s.dir, Want: FormatVersion, Reason: "unreadable MANIFEST"}
		}
		if m.Version != FormatVersion {
			return &VersionError{Dir: s.dir, Found: m.Version, Want: FormatVersion, Reason: "version skew"}
		}
		return nil
	case os.IsNotExist(err):
		if _, jerr := os.Stat(s.path(journalName)); jerr == nil {
			return &VersionError{Dir: s.dir, Want: FormatVersion, Reason: "journal present without MANIFEST"}
		}
		mb, _ := json.Marshal(manifest{Format: manifestFormat, Version: FormatVersion})
		if err := atomicWrite(s.dir, manifestName, mb); err != nil {
			return fmt.Errorf("jobstore: write manifest: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("jobstore: %w", err)
	}
}

// atomicWrite lands name in dir via temp file + rename + directory sync.
func atomicWrite(dir, name string, b []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// replay reads the journal from the start, applies every good record, and
// truncates away a torn or corrupt tail.
func (s *Store) replay() (*ReplayReport, error) {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	b, err := io.ReadAll(s.f)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}

	rep := &ReplayReport{}
	var good int64 // offset just past the last good record
	for {
		payload, n, err := ReadFrame(b[good:])
		if err != nil {
			break // clean EOF, torn tail or corrupted record: stop either way
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // checksummed garbage: a foreign writer; stop, don't guess
		}
		good += int64(n)
		rep.Records++
		if !s.apply(rec) {
			rep.Ignored++
		}
	}
	rep.TornBytes = int64(len(b)) - good
	if rep.TornBytes > 0 {
		if err := s.f.Truncate(good); err != nil {
			return nil, fmt.Errorf("jobstore: truncate torn tail: %w", err)
		}
	}
	if _, err := s.f.Seek(good, io.SeekStart); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s.size = good
	rep.Jobs = len(s.jobs)
	return rep, nil
}

// apply folds one record into the in-memory job map. It reports whether
// the record changed anything; replay counts no-ops as Ignored. The rules
// make replay idempotent: duplicate admits are ignored, outcomes for
// unknown IDs are ignored, and an admit never reopens a finished job.
func (s *Store) apply(rec Record) bool {
	if rec.ID == "" || !rec.State.valid() {
		return false
	}
	jr, ok := s.jobs[rec.ID]
	if rec.State == StateAdmitted {
		if ok {
			return false // duplicate admit (e.g. a resubmit after a failed append)
		}
		s.seq++
		s.jobs[rec.ID] = &JobRecord{
			ID: rec.ID, Tenant: rec.Tenant, Spec: rec.Spec,
			State: StateAdmitted, seq: s.seq,
		}
		return true
	}
	if !ok {
		return false // outcome for a job never admitted: ignore
	}
	jr.State = rec.State
	jr.Error = rec.Error
	return true
}

// Jobs snapshots the replayed + appended job states in admission order.
func (s *Store) Jobs() []JobRecord {
	s.mu.Lock()
	out := make([]JobRecord, 0, len(s.jobs))
	for _, jr := range s.jobs {
		out = append(out, *jr)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Append durably records one admission or outcome. With Options.Sync the
// record is fsynced before Append returns. An error means the record may
// or may not be on disk — exactly the crash ambiguity replay tolerates.
func (s *Store) Append(rec Record) error {
	if rec.ID == "" {
		return errors.New("jobstore: append: empty job ID")
	}
	if !rec.State.valid() {
		return fmt.Errorf("jobstore: append: unknown state %q", rec.State)
	}
	if rec.State == StateAdmitted && len(rec.Spec) == 0 {
		return errors.New("jobstore: append: admitted record needs a spec")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: append: %w", err)
	}
	frame := AppendFrame(nil, payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("jobstore: store is closed")
	}
	if _, err := s.f.Write(frame); err != nil {
		return fmt.Errorf("jobstore: append: %w", err)
	}
	if s.o.Sync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("jobstore: append sync: %w", err)
		}
	}
	s.size += int64(len(frame))
	s.apply(rec)
	return nil
}

// AppendFrame appends payload to dst as one frame — [4B little-endian
// payload length][4B CRC-32C of payload][payload] — and returns the
// extended slice. The journal and the result cache's segment files
// share this framing.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return append(append(dst, hdr[:]...), payload...)
}

// ReadFrame decodes the frame at the start of b, returning its payload
// (aliasing b) and the frame's full length. It fails when b ends before
// the frame does (a torn tail, or a frame still being written), when the
// length prefix is zero or beyond maxRecordBytes, and when the payload
// does not match its checksum. A caller scanning a file stops at the
// first failure: past it, frame boundaries cannot be trusted.
func ReadFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < headerBytes {
		return nil, 0, errors.New("jobstore: truncated frame header")
	}
	size := binary.LittleEndian.Uint32(b[0:4])
	if size == 0 || size > maxRecordBytes {
		return nil, 0, fmt.Errorf("jobstore: frame length %d out of range", size)
	}
	n = headerBytes + int(size)
	if len(b) < n {
		return nil, 0, errors.New("jobstore: truncated frame payload")
	}
	payload = b[headerBytes:n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, errors.New("jobstore: frame checksum mismatch")
	}
	return payload, n, nil
}

// Size reports the journal's current byte length.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes and closes the journal, then releases the directory lock.
// It reports the final fsync's error, if any. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var syncErr error
	if s.o.Sync {
		syncErr = s.f.Sync()
	}
	return errors.Join(syncErr, s.f.Close(), s.lock.Close())
}
