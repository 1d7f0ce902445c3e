// Package jobstore persists a job queue's specs and lifecycle
// transitions in a crash-safe append-only journal, so a restarted server
// resumes or re-queues every incomplete job instead of silently dropping
// it (DESIGN.md §12).
//
// Layout: a store directory holds a MANIFEST (format + version, written
// atomically at creation, checked on every open) and a single `journal`
// file of length-prefixed, checksummed records:
//
//	[4B little-endian payload length][4B CRC-32C of payload][JSON payload]
//
// Appends go to the tail (optionally fsynced); compaction rewrites the
// live state into a temp file and renames it over the journal, so readers
// in any crash window see either the old complete journal or the new one.
//
// Replay is torn-tail tolerant: a record cut short by a crash (or
// corrupted in place) ends replay at the last good record and the file is
// truncated back to that point — corrupted bytes can lose the tail but
// can never be misread into a wrong job state. Replay is idempotent over
// duplicated records (a crashed compaction or a double append changes
// nothing) and ignores transitions for unknown job IDs. A store directory
// written by a different format version fails closed with a *VersionError
// rather than guessing.
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
//	2 — lease records (leased/released) with Owner + LeaseUntil for
//	    fleet job handoff; an older binary would silently drop them,
//	    so the version gates the whole journal (PR 10)
const FormatVersion = 2

const (
	manifestName = "MANIFEST"
	journalName  = "journal"
	compactTmp   = "journal.tmp"
	// maxRecordBytes bounds one record's payload; a length prefix beyond
	// it is treated as corruption, not an allocation request.
	maxRecordBytes = 16 << 20
	// headerBytes frames every record: payload length + CRC-32C.
	headerBytes = 8
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms we run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// State is a job's lifecycle position as recorded in the journal.
type State string

// Lifecycle states. Admitted and Running jobs are incomplete — a replay
// re-queues them. Done and Failed are terminal. Leased and Released are
// ownership records, orthogonal to the lifecycle: they set or clear the
// job's Owner/LeaseUntil without changing its lifecycle State, so a peer
// replaying the journal can tell an abandoned job (lease expired or
// explicitly released) from one another live instance is still working.
const (
	StateAdmitted State = "admitted"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateLeased   State = "leased"
	StateReleased State = "released"
)

// valid reports whether s is a known lifecycle state.
func (s State) valid() bool {
	switch s {
	case StateAdmitted, StateRunning, StateDone, StateFailed, StateLeased, StateReleased:
		return true
	}
	return false
}

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Record is one journal entry: a job entering a lifecycle state. Spec is
// opaque to the store (the server journals its wire JobSpec); it is
// required on StateAdmitted records and ignored elsewhere.
type Record struct {
	State  State           `json:"state"`
	ID     string          `json:"id"`
	Tenant string          `json:"tenant,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	// Error and Retryable qualify StateFailed.
	Error     string `json:"error,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
	// Owner and LeaseUntil qualify StateLeased: the instance that holds
	// the job, and the Unix-millisecond deadline after which any peer may
	// adopt it. StateReleased clears them.
	Owner      string `json:"owner,omitempty"`
	LeaseUntil int64  `json:"lease_until,omitempty"`
}

// JobRecord is one job's replayed state: the admit-time identity, the last
// lifecycle transition observed, and the current lease (if any).
type JobRecord struct {
	ID        string
	Tenant    string
	Spec      json.RawMessage
	State     State
	Error     string
	Retryable bool
	// Owner is the instance holding the job's lease, "" when unleased or
	// released. LeaseUntil is the lease's Unix-millisecond expiry.
	Owner      string
	LeaseUntil int64

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
	// duplicated admit, a transition for an unknown ID, or a stale
	// transition after a terminal state.
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
	// and transition durable before the caller proceeds. Servers want it;
	// tests that only exercise logic can leave it off.
	Sync bool
	// CompactBytes is the journal size that triggers automatic compaction
	// on append (the journal must also have at least doubled since the
	// last compaction, so a mostly-live journal is not rewritten per
	// append). 0 means 1 MiB; negative disables auto-compaction.
	CompactBytes int64
	// Fault, when non-nil, is consulted before each durability-critical
	// operation with an op name ("append", "manifest", "compact-write",
	// "compact-sync", "compact-rename"). Returning an error simulates a
	// crash at that point: an "append" fault additionally leaves a torn
	// half-written record on disk, exactly like a real power cut. Test
	// hook; leave nil in production.
	Fault func(op string) error
}

type manifest struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

const manifestFormat = "dmdc-jobstore"

// Store is a crash-safe journal of job lifecycle records. All methods are
// safe for concurrent use. One process must own a store directory at a
// time; the store does no cross-process locking.
type Store struct {
	dir string
	o   Options

	mu            sync.Mutex
	f             *os.File
	size          int64
	sizeAtCompact int64
	jobs          map[string]*JobRecord
	seq           int
	closed        bool
}

// Open opens (creating if needed) the store at dir and replays its
// journal. The returned report describes what was recovered; call Jobs
// for the replayed state.
func Open(dir string, o Options) (*Store, *ReplayReport, error) {
	if dir == "" {
		return nil, nil, errors.New("jobstore: empty store directory")
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobstore: %w", err)
	}
	s := &Store{dir: dir, o: o, jobs: make(map[string]*JobRecord)}
	if err := s.checkManifest(); err != nil {
		return nil, nil, err
	}
	// A temp file left by a crashed compaction is garbage: the rename
	// never happened, so the real journal is still complete.
	os.Remove(filepath.Join(dir, compactTmp))

	f, err := os.OpenFile(s.path(journalName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobstore: %w", err)
	}
	s.f = f
	rep, err := s.replay()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	s.sizeAtCompact = s.size
	return s, rep, nil
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
		if s.o.Fault != nil {
			if ferr := s.o.Fault("manifest"); ferr != nil {
				return ferr
			}
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
	fi, err := s.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	total := fi.Size()

	rep := &ReplayReport{}
	var good int64 // offset just past the last good record
	hdr := make([]byte, headerBytes)
	var payload []byte
	for {
		if _, err := io.ReadFull(s.f, hdr); err != nil {
			break // clean EOF or torn header: stop either way
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecordBytes {
			break // corrupt length
		}
		if int(n) > cap(payload) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(s.f, payload); err != nil {
			break // torn payload
		}
		if crc32.Checksum(payload, crcTable) != sum {
			break // corrupted record
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // checksummed garbage: a foreign writer; stop, don't guess
		}
		good += headerBytes + int64(n)
		rep.Records++
		if !s.apply(rec) {
			rep.Ignored++
		}
	}
	rep.TornBytes = total - good
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
// the record changed anything; replay counts no-ops as Ignored. The
// transition rules make replay idempotent: duplicate admits are ignored,
// transitions for unknown IDs are ignored, and a terminal state is never
// overwritten by a non-terminal one.
func (s *Store) apply(rec Record) bool {
	if rec.ID == "" || !rec.State.valid() {
		return false
	}
	jr, ok := s.jobs[rec.ID]
	if rec.State == StateAdmitted {
		if ok {
			return false // duplicate admit (e.g. replayed after compaction)
		}
		s.seq++
		s.jobs[rec.ID] = &JobRecord{
			ID: rec.ID, Tenant: rec.Tenant, Spec: rec.Spec,
			State: StateAdmitted, seq: s.seq,
		}
		return true
	}
	if !ok {
		return false // transition for a job never admitted: ignore
	}
	switch rec.State {
	case StateLeased:
		if jr.State.Terminal() {
			return false // lease on a finished job: stale, ignore
		}
		jr.Owner = rec.Owner
		jr.LeaseUntil = rec.LeaseUntil
		return true
	case StateReleased:
		if jr.State.Terminal() || jr.Owner == "" {
			return false
		}
		jr.Owner = ""
		jr.LeaseUntil = 0
		return true
	}
	if jr.State.Terminal() && !rec.State.Terminal() {
		return false // stale non-terminal record after a terminal one
	}
	jr.State = rec.State
	jr.Error = rec.Error
	jr.Retryable = rec.Retryable
	if rec.State.Terminal() {
		jr.Owner = "" // a finished job's lease is moot
		jr.LeaseUntil = 0
	}
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

// Append durably records one lifecycle transition. With Options.Sync the
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
	if rec.State == StateLeased && (rec.Owner == "" || rec.LeaseUntil <= 0) {
		return errors.New("jobstore: append: leased record needs an owner and expiry")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: append: %w", err)
	}
	frame := make([]byte, headerBytes+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[headerBytes:], payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("jobstore: store is closed")
	}
	if s.o.Fault != nil {
		if ferr := s.o.Fault("append"); ferr != nil {
			// Simulated crash mid-write: leave a torn half-record behind,
			// the exact artifact replay must truncate away.
			s.f.Write(frame[:len(frame)/2])
			return ferr
		}
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
	if s.o.CompactBytes > 0 && s.size > s.o.CompactBytes && s.size > 2*s.sizeAtCompact {
		// Best-effort: a failed auto-compaction leaves the (complete)
		// journal as it was; the append above already succeeded.
		s.compactLocked()
	}
	return nil
}

// Compact rewrites the journal down to the live state: one admit record
// per job plus its last non-admitted transition. The swap is atomic
// (write temp, fsync, rename, fsync dir) — a crash at any point leaves
// either the old complete journal or the new one, never a mix.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("jobstore: store is closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	fault := func(op string) error {
		if s.o.Fault != nil {
			return s.o.Fault(op)
		}
		return nil
	}
	tmpPath := s.path(compactTmp)
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	abort := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := fault("compact-write"); err != nil {
		return abort(err)
	}
	jobs := make([]*JobRecord, 0, len(s.jobs))
	for _, jr := range s.jobs {
		jobs = append(jobs, jr)
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].seq < jobs[j].seq })
	var size int64
	for _, jr := range jobs {
		n, err := writeFrame(tmp, Record{State: StateAdmitted, ID: jr.ID, Tenant: jr.Tenant, Spec: jr.Spec})
		if err != nil {
			return abort(fmt.Errorf("jobstore: compact: %w", err))
		}
		size += n
		if jr.State != StateAdmitted {
			n, err := writeFrame(tmp, Record{State: jr.State, ID: jr.ID, Error: jr.Error, Retryable: jr.Retryable})
			if err != nil {
				return abort(fmt.Errorf("jobstore: compact: %w", err))
			}
			size += n
		}
		if jr.Owner != "" {
			n, err := writeFrame(tmp, Record{State: StateLeased, ID: jr.ID, Owner: jr.Owner, LeaseUntil: jr.LeaseUntil})
			if err != nil {
				return abort(fmt.Errorf("jobstore: compact: %w", err))
			}
			size += n
		}
	}
	if err := fault("compact-sync"); err != nil {
		return abort(err)
	}
	if err := tmp.Sync(); err != nil {
		return abort(fmt.Errorf("jobstore: compact: %w", err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	if err := fault("compact-rename"); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, s.path(journalName)); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	// The old handle now points at an unlinked inode; swap to the new file.
	nf, err := os.OpenFile(s.path(journalName), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: compact reopen: %w", err)
	}
	s.f.Close()
	s.f = nf
	s.size = size
	s.sizeAtCompact = size
	return nil
}

// writeFrame appends one framed record to w and returns its full length.
func writeFrame(w io.Writer, rec Record) (int64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	frame := make([]byte, headerBytes+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[headerBytes:], payload)
	n, err := w.Write(frame)
	return int64(n), err
}

// Size reports the journal's current byte length.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes and closes the journal. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.o.Sync {
		s.f.Sync()
	}
	return s.f.Close()
}
