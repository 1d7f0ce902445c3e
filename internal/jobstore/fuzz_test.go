package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// validManifest is the byte-exact MANIFEST Open writes for this version.
var validManifest = []byte(fmt.Sprintf(`{"format":"dmdc-jobstore","version":%d}`, FormatVersion))

// buildJournal renders records through the real framing.
func buildJournal(t testing.TB, recs ...Record) []byte {
	t.Helper()
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzJournalReplay feeds arbitrary bytes to the replay path: corrupted
// or truncated journals must never panic, must never yield a job in an
// invalid state, and repair must be idempotent (a second open of the
// repaired journal replays cleanly to the identical state).
func FuzzJournalReplay(f *testing.F) {
	full := buildJournal(f,
		Record{State: StateAdmitted, ID: "a", Tenant: "t1", Spec: json.RawMessage(`{"benchmark":"gcc","insts":5000}`)},
		Record{State: StateDone, ID: "a"},
		Record{State: StateAdmitted, ID: "b", Spec: json.RawMessage(`{"x":1}`)},
		Record{State: StateFailed, ID: "b", Error: "boom"},
		Record{State: StateAdmitted, ID: "c", Spec: json.RawMessage(`{"x":2}`)},
		Record{State: StateDone, ID: "ghost"},
	)
	f.Add(full)
	f.Add(full[:len(full)-5])
	f.Add(full[3:])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	mut := append([]byte(nil), full...)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), validManifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, rep, err := Open(dir, Options{})
		if err != nil {
			// Only environment errors may surface; corruption must repair.
			t.Fatalf("Open on corrupt journal errored: %v", err)
		}
		jobs := s.Jobs()
		if len(jobs) != rep.Jobs {
			t.Fatalf("report says %d jobs, Jobs() has %d", rep.Jobs, len(jobs))
		}
		seen := map[string]bool{}
		for _, jr := range jobs {
			if jr.ID == "" || !jr.State.valid() {
				t.Fatalf("replay yielded invalid job state: %+v", jr)
			}
			if seen[jr.ID] {
				t.Fatalf("replay yielded duplicate job %q", jr.ID)
			}
			seen[jr.ID] = true
		}
		s.Close()

		// Idempotence: the repaired journal replays byte-identically.
		s2, rep2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after repair: %v", err)
		}
		defer s2.Close()
		if rep2.TornBytes != 0 {
			t.Fatalf("repair was not idempotent: second open still torn (%d bytes)", rep2.TornBytes)
		}
		again := s2.Jobs()
		if len(again) != len(jobs) {
			t.Fatalf("repair changed job count %d -> %d", len(jobs), len(again))
		}
		for i := range jobs {
			a, b := jobs[i], again[i]
			if a.ID != b.ID || a.State != b.State || a.Tenant != b.Tenant ||
				string(a.Spec) != string(b.Spec) || a.Error != b.Error {
				t.Fatalf("repair changed job %d: %+v vs %+v", i, a, b)
			}
		}
	})
}
