package jobstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// spec is a stand-in opaque job spec payload.
func spec(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"benchmark":"gcc","insts":%d}`, 1000+i))
}

// openFresh opens a new store in a temp dir, failing the test on error.
func openFresh(t *testing.T, o Options) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, rep, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rep.Records != 0 || rep.Jobs != 0 || rep.TornBytes != 0 {
		t.Fatalf("fresh store replayed %+v", rep)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

// reopen closes nothing (callers do) and opens dir again.
func reopen(t *testing.T, dir string, o Options) (*Store, *ReplayReport) {
	t.Helper()
	s, rep, err := Open(dir, o)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rep
}

// admit appends one admitted record.
func admit(t *testing.T, s *Store, id string, tenant string, i int) {
	t.Helper()
	if err := s.Append(Record{State: StateAdmitted, ID: id, Tenant: tenant, Spec: spec(i)}); err != nil {
		t.Fatalf("admit %s: %v", id, err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	t.Parallel()
	s, dir := openFresh(t, Options{Sync: true})
	admit(t, s, "a", "alice", 0)
	admit(t, s, "b", "bob", 1)
	admit(t, s, "c", "", 2)
	for _, id := range []string{"a", "b"} {
		if err := s.Append(Record{State: StateRunning, ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(Record{State: StateDone, ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{State: StateFailed, ID: "b", Error: "boom", Retryable: true}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, rep := reopen(t, dir, Options{})
	if rep.Records != 7 || rep.TornBytes != 0 || rep.Ignored != 0 {
		t.Fatalf("replay report %+v", rep)
	}
	jobs := s2.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	// Admission order is preserved.
	wantOrder := []string{"a", "b", "c"}
	wantState := []State{StateDone, StateFailed, StateAdmitted}
	for i, jr := range jobs {
		if jr.ID != wantOrder[i] || jr.State != wantState[i] {
			t.Fatalf("job %d = %s/%s, want %s/%s", i, jr.ID, jr.State, wantOrder[i], wantState[i])
		}
	}
	if jobs[1].Error != "boom" || !jobs[1].Retryable {
		t.Fatalf("failed job lost its error: %+v", jobs[1])
	}
	if string(jobs[0].Spec) != string(spec(0)) {
		t.Fatalf("spec round trip: %s", jobs[0].Spec)
	}
	if jobs[0].Tenant != "alice" || jobs[2].Tenant != "" {
		t.Fatalf("tenant round trip: %+v", jobs)
	}
}

// TestJournalReplayEdgeCases is the satellite table: torn and corrupted
// tails, duplicated records, and stale transitions must never panic or
// yield a wrong job state.
func TestJournalReplayEdgeCases(t *testing.T) {
	t.Parallel()
	// base writes three jobs; "a" done, "b" running, "c" admitted.
	base := func(t *testing.T, s *Store) {
		admit(t, s, "a", "t1", 0)
		admit(t, s, "b", "t1", 1)
		admit(t, s, "c", "t2", 2)
		s.Append(Record{State: StateRunning, ID: "a"})
		s.Append(Record{State: StateDone, ID: "a"})
		s.Append(Record{State: StateRunning, ID: "b"})
	}
	wantBase := map[string]State{"a": StateDone, "b": StateRunning, "c": StateAdmitted}

	cases := []struct {
		name string
		// mutate corrupts the closed journal file in place.
		mutate func(t *testing.T, path string)
		// extra appends records before close (for duplicate/stale cases).
		extra       func(t *testing.T, s *Store)
		want        map[string]State
		wantTorn    bool
		wantIgnored int
	}{
		{
			name: "torn final record payload",
			mutate: func(t *testing.T, path string) {
				b := readFileT(t, path)
				writeFileT(t, path, b[:len(b)-3])
			},
			// The last record (b running) is torn away; b reverts to admitted.
			want:     map[string]State{"a": StateDone, "b": StateAdmitted, "c": StateAdmitted},
			wantTorn: true,
		},
		{
			name: "torn final record header",
			mutate: func(t *testing.T, path string) {
				b := readFileT(t, path)
				writeFileT(t, path, append(b, 0x12, 0x34, 0x56))
			},
			want:     wantBase,
			wantTorn: true,
		},
		{
			name: "flipped byte in final record",
			mutate: func(t *testing.T, path string) {
				b := readFileT(t, path)
				b[len(b)-2] ^= 0xFF
				writeFileT(t, path, b)
			},
			want:     map[string]State{"a": StateDone, "b": StateAdmitted, "c": StateAdmitted},
			wantTorn: true,
		},
		{
			name: "absurd length prefix in tail",
			mutate: func(t *testing.T, path string) {
				b := readFileT(t, path)
				tail := make([]byte, headerBytes)
				binary.LittleEndian.PutUint32(tail[0:4], maxRecordBytes+1)
				writeFileT(t, path, append(b, tail...))
			},
			want:     wantBase,
			wantTorn: true,
		},
		{
			name: "checksummed garbage record in tail",
			mutate: func(t *testing.T, path string) {
				b := readFileT(t, path)
				payload := []byte("not json at all")
				tail := make([]byte, headerBytes+len(payload))
				binary.LittleEndian.PutUint32(tail[0:4], uint32(len(payload)))
				binary.LittleEndian.PutUint32(tail[4:8], crc32.Checksum(payload, crcTable))
				copy(tail[headerBytes:], payload)
				writeFileT(t, path, append(b, tail...))
			},
			want:     wantBase,
			wantTorn: true,
		},
		{
			name: "duplicated records after crashed compaction",
			extra: func(t *testing.T, s *Store) {
				// A sloppy writer (or replayed pre-compaction tail) repeats
				// records verbatim; replay must be idempotent.
				s.Append(Record{State: StateAdmitted, ID: "a", Tenant: "evil", Spec: spec(99)})
				s.Append(Record{State: StateDone, ID: "a"})
				s.Append(Record{State: StateRunning, ID: "b"})
			},
			want:        wantBase,
			wantIgnored: 1, // the duplicate admit; re-applied transitions count as applied
		},
		{
			name: "transition for unknown job id",
			extra: func(t *testing.T, s *Store) {
				s.Append(Record{State: StateDone, ID: "ghost"})
			},
			want:        wantBase,
			wantIgnored: 1,
		},
		{
			name: "stale non-terminal after terminal",
			extra: func(t *testing.T, s *Store) {
				s.Append(Record{State: StateRunning, ID: "a"})
			},
			want:        wantBase,
			wantIgnored: 1,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, dir := openFresh(t, Options{})
			base(t, s)
			if tc.extra != nil {
				tc.extra(t, s)
			}
			s.Close()
			if tc.mutate != nil {
				tc.mutate(t, filepath.Join(dir, journalName))
			}
			s2, rep := reopen(t, dir, Options{})
			if (rep.TornBytes > 0) != tc.wantTorn {
				t.Fatalf("TornBytes = %d, want torn=%v", rep.TornBytes, tc.wantTorn)
			}
			if rep.Ignored != tc.wantIgnored {
				t.Errorf("Ignored = %d, want %d", rep.Ignored, tc.wantIgnored)
			}
			got := map[string]State{}
			for _, jr := range s2.Jobs() {
				got[jr.ID] = jr.State
				if jr.ID == "a" && jr.Tenant != "t1" {
					t.Errorf("job a tenant rewritten to %q", jr.Tenant)
				}
			}
			if len(got) != len(tc.want) {
				t.Fatalf("jobs %v, want %v", got, tc.want)
			}
			for id, st := range tc.want {
				if got[id] != st {
					t.Errorf("job %s = %s, want %s", id, got[id], st)
				}
			}
			// Replay repaired the file: a third open sees a clean journal
			// with the identical state (repair is idempotent).
			s2.Close()
			s3, rep3 := reopen(t, dir, Options{})
			if rep3.TornBytes != 0 {
				t.Fatalf("second replay still torn: %+v", rep3)
			}
			for id, st := range tc.want {
				if gotSt := stateOf(s3, id); gotSt != st {
					t.Errorf("after repair, job %s = %s, want %s", id, gotSt, st)
				}
			}
		})
	}
}

func stateOf(s *Store, id string) State {
	for _, jr := range s.Jobs() {
		if jr.ID == id {
			return jr.State
		}
	}
	return ""
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeFileT(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVersionSkewFailsClosed pins the typed-error contract: a store
// directory this binary cannot read safely is rejected, never guessed at.
func TestVersionSkewFailsClosed(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		prep func(t *testing.T, dir string)
	}{
		{
			name: "future version manifest",
			prep: func(t *testing.T, dir string) {
				writeFileT(t, filepath.Join(dir, manifestName),
					[]byte(`{"format":"dmdc-jobstore","version":999}`))
			},
		},
		{
			name: "garbage manifest",
			prep: func(t *testing.T, dir string) {
				writeFileT(t, filepath.Join(dir, manifestName), []byte("not json"))
			},
		},
		{
			name: "foreign format manifest",
			prep: func(t *testing.T, dir string) {
				writeFileT(t, filepath.Join(dir, manifestName),
					[]byte(`{"format":"something-else","version":1}`))
			},
		},
		{
			name: "journal without manifest",
			prep: func(t *testing.T, dir string) {
				writeFileT(t, filepath.Join(dir, journalName), []byte{1, 2, 3, 4})
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			tc.prep(t, dir)
			_, _, err := Open(dir, Options{})
			var ve *VersionError
			if !errors.As(err, &ve) {
				t.Fatalf("Open = %v, want *VersionError", err)
			}
		})
	}
}

// TestAppendCrashLeavesTornTail drives the fault hook: a crash mid-append
// leaves a torn half-record that the next open truncates away, keeping
// every earlier record.
func TestAppendCrashLeavesTornTail(t *testing.T) {
	t.Parallel()
	boom := errors.New("injected crash")
	armed := false
	s, dir := openFresh(t, Options{Fault: func(op string) error {
		if armed && op == "append" {
			return boom
		}
		return nil
	}})
	admit(t, s, "a", "t", 0)
	s.Append(Record{State: StateRunning, ID: "a"})
	armed = true
	if err := s.Append(Record{State: StateDone, ID: "a"}); !errors.Is(err, boom) {
		t.Fatalf("faulted append err = %v", err)
	}
	s.Close()

	s2, rep := reopen(t, dir, Options{})
	if rep.TornBytes == 0 {
		t.Fatal("crash left no torn tail to repair")
	}
	if got := stateOf(s2, "a"); got != StateRunning {
		t.Fatalf("job a = %s after torn done record, want running", got)
	}
}

// TestCompactionShrinksAndPreserves pins compaction: terminal and live
// jobs survive byte-for-byte in admission order, and the journal shrinks.
func TestCompactionShrinksAndPreserves(t *testing.T) {
	t.Parallel()
	s, dir := openFresh(t, Options{})
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("job-%02d", i)
		admit(t, s, id, "t", i)
		s.Append(Record{State: StateRunning, ID: id})
		if i%2 == 0 {
			s.Append(Record{State: StateDone, ID: id})
		}
	}
	before := s.Size()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if s.Size() >= before {
		t.Fatalf("compaction grew the journal: %d -> %d", before, s.Size())
	}
	jobsBefore := s.Jobs()
	s.Close()
	s2, rep := reopen(t, dir, Options{})
	if rep.TornBytes != 0 || rep.Ignored != 0 {
		t.Fatalf("replay of compacted journal: %+v", rep)
	}
	jobsAfter := s2.Jobs()
	if len(jobsAfter) != len(jobsBefore) {
		t.Fatalf("compaction changed job count %d -> %d", len(jobsBefore), len(jobsAfter))
	}
	for i := range jobsBefore {
		b, a := jobsBefore[i], jobsAfter[i]
		if b.ID != a.ID || b.State != a.State || string(b.Spec) != string(a.Spec) || b.Tenant != a.Tenant {
			t.Fatalf("job %d changed across compaction: %+v vs %+v", i, b, a)
		}
	}
}

// TestCompactionCrashPoints pins atomicity: a crash at any compaction
// step leaves the old journal complete and readable.
func TestCompactionCrashPoints(t *testing.T) {
	t.Parallel()
	for _, point := range []string{"compact-write", "compact-sync", "compact-rename"} {
		point := point
		t.Run(point, func(t *testing.T) {
			t.Parallel()
			boom := errors.New("injected crash")
			armed := false
			s, dir := openFresh(t, Options{Fault: func(op string) error {
				if armed && op == point {
					return boom
				}
				return nil
			}})
			admit(t, s, "a", "t", 0)
			s.Append(Record{State: StateDone, ID: "a"})
			admit(t, s, "b", "t", 1)
			armed = true
			if err := s.Compact(); !errors.Is(err, boom) {
				t.Fatalf("faulted compact err = %v", err)
			}
			armed = false
			// The store survives the failed compaction in-process...
			if err := s.Append(Record{State: StateRunning, ID: "b"}); err != nil {
				t.Fatalf("append after failed compact: %v", err)
			}
			s.Close()
			// ...and the on-disk journal (old file, plus possibly a stray
			// temp) replays to the same state on restart.
			s2, rep := reopen(t, dir, Options{})
			if rep.TornBytes != 0 {
				t.Fatalf("failed compaction tore the journal: %+v", rep)
			}
			if got := stateOf(s2, "a"); got != StateDone {
				t.Fatalf("job a = %s, want done", got)
			}
			if got := stateOf(s2, "b"); got != StateRunning {
				t.Fatalf("job b = %s, want running", got)
			}
			if _, err := os.Stat(filepath.Join(dir, compactTmp)); err == nil {
				t.Fatal("crashed compaction temp file not cleaned up on reopen")
			}
		})
	}
}

// TestAutoCompaction pins the append-path trigger: a journal past the
// threshold with mostly-dead records is rewritten automatically.
func TestAutoCompaction(t *testing.T) {
	t.Parallel()
	s, _ := openFresh(t, Options{CompactBytes: 2048})
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("j%03d", i)
		admit(t, s, id, "t", i)
		s.Append(Record{State: StateRunning, ID: id})
		s.Append(Record{State: StateDone, ID: id})
	}
	// 600 records at ~60B each is far past 2048; auto-compaction must have
	// kept the file near the live-state size (2 records per job).
	if s.Size() > 64<<10 {
		t.Fatalf("journal never auto-compacted: %d bytes", s.Size())
	}
	if got := len(s.Jobs()); got != 200 {
		t.Fatalf("auto-compaction lost jobs: %d", got)
	}
}

// TestAppendValidation pins the append-side guards.
func TestAppendValidation(t *testing.T) {
	t.Parallel()
	s, _ := openFresh(t, Options{})
	if err := s.Append(Record{State: StateDone}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := s.Append(Record{State: "levitating", ID: "x"}); err == nil {
		t.Fatal("unknown state accepted")
	}
	if err := s.Append(Record{State: StateAdmitted, ID: "x"}); err == nil {
		t.Fatal("admit without spec accepted")
	}
	s.Close()
	if err := s.Append(Record{State: StateDone, ID: "x"}); err == nil {
		t.Fatal("append after close accepted")
	}
}
