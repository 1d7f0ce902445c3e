package jobstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
	if err := s.Append(Record{State: StateDone, ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{State: StateFailed, ID: "b", Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rep := reopen(t, dir, Options{})
	if rep.Records != 5 || rep.TornBytes != 0 || rep.Ignored != 0 {
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
	if jobs[1].Error != "boom" {
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
// tails, duplicated records, and outcomes for unknown jobs must never
// panic or yield a wrong job state.
func TestJournalReplayEdgeCases(t *testing.T) {
	t.Parallel()
	// base writes three jobs; "a" done, "b" failed, "c" admitted.
	base := func(t *testing.T, s *Store) {
		admit(t, s, "a", "t1", 0)
		admit(t, s, "b", "t1", 1)
		admit(t, s, "c", "t2", 2)
		s.Append(Record{State: StateDone, ID: "a"})
		s.Append(Record{State: StateFailed, ID: "b", Error: "boom"})
	}
	wantBase := map[string]State{"a": StateDone, "b": StateFailed, "c": StateAdmitted}

	cases := []struct {
		name string
		// mutate corrupts the closed journal file in place.
		mutate func(t *testing.T, path string)
		// extra appends records before close (for duplicate/unknown cases).
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
			// The last record (b failed) is torn away; b reverts to admitted.
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
			name: "duplicated records",
			extra: func(t *testing.T, s *Store) {
				// A resubmit after an append whose fsync failed repeats
				// records; replay must be idempotent, and a repeated admit
				// never reopens a finished job.
				s.Append(Record{State: StateAdmitted, ID: "a", Tenant: "evil", Spec: spec(99)})
				s.Append(Record{State: StateDone, ID: "a"})
				s.Append(Record{State: StateFailed, ID: "b", Error: "boom"})
			},
			want:        wantBase,
			wantIgnored: 1, // the duplicate admit; re-applied outcomes count as applied
		},
		{
			name: "transition for unknown job id",
			extra: func(t *testing.T, s *Store) {
				s.Append(Record{State: StateDone, ID: "ghost"})
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
			// Format 2 predates the directory lock: a binary that does
			// not take it must never share a store with one that does.
			name: "format 2 manifest",
			prep: func(t *testing.T, dir string) {
				writeFileT(t, filepath.Join(dir, manifestName),
					[]byte(`{"format":"dmdc-jobstore","version":2}`))
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

// TestLockSingleOwner pins the one-owner contract: while a Store holds a
// directory, a second Open of it fails with ErrLocked and writes nothing;
// after the holder's Close, Open succeeds and replays every acknowledged
// record.
func TestLockSingleOwner(t *testing.T) {
	t.Parallel()
	s, dir := openFresh(t, Options{Sync: true})
	for i := 0; i < 6; i++ {
		admit(t, s, fmt.Sprintf("job-%d", i), "t", i)
	}
	if err := s.Append(Record{State: StateDone, ID: "job-0"}); err != nil {
		t.Fatal(err)
	}
	before := dirSnapshot(t, dir)

	// The lock is on the directory's LOCK file, not its path: a symlink
	// to the store is refused too.
	link := filepath.Join(t.TempDir(), "link")
	if err := os.Symlink(dir, link); err != nil {
		t.Fatal(err)
	}
	for _, held := range []string{dir, link} {
		s2, _, err := Open(held, Options{Sync: true})
		if !errors.Is(err, ErrLocked) {
			if s2 != nil {
				s2.Close()
			}
			t.Fatalf("second Open(%s) = %v, want ErrLocked", held, err)
		}
		if !strings.Contains(err.Error(), lockName) {
			t.Errorf("lock error %q does not name the LOCK file", err)
		}
	}
	if after := dirSnapshot(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused Open wrote to the store:\nbefore %v\nafter  %v", before, after)
	}
	// The holder is unaffected by the refused opens.
	admit(t, s, "job-6", "t", 6)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s3, rep := reopen(t, dir, Options{})
	if rep.Records != 8 || rep.Jobs != 7 || rep.TornBytes != 0 {
		t.Fatalf("replay after handover: %+v", rep)
	}
	if got := stateOf(s3, "job-0"); got != StateDone {
		t.Fatalf("job-0 = %s, want done", got)
	}
}

// dirSnapshot maps each file in dir to its contents.
func dirSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		out[e.Name()] = string(readFileT(t, filepath.Join(dir, e.Name())))
	}
	return out
}

// TestAppendValidation pins the append-side guards.
func TestAppendValidation(t *testing.T) {
	t.Parallel()
	s, _ := openFresh(t, Options{})
	if err := s.Append(Record{State: StateDone}); err == nil {
		t.Fatal("empty ID accepted")
	}
	for _, st := range []State{"levitating", "running", "leased"} {
		if err := s.Append(Record{State: st, ID: "x"}); err == nil {
			t.Fatalf("state %q accepted", st)
		}
	}
	if err := s.Append(Record{State: StateAdmitted, ID: "x"}); err == nil {
		t.Fatal("admit without spec accepted")
	}
	s.Close()
	if err := s.Append(Record{State: StateDone, ID: "x"}); err == nil {
		t.Fatal("append after close accepted")
	}
}
