package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func TestDetailTable(t *testing.T) {
	s := testSuite(t, 40_000, "gzip", "swim")
	d := s.Detail()
	if len(d.Rows) != 2 {
		t.Fatalf("rows = %d", len(d.Rows))
	}
	// Sorted by class then name: FP (swim) before INT (gzip).
	if d.Rows[0].Class != "FP" || d.Rows[1].Class != "INT" {
		t.Errorf("ordering wrong: %+v", d.Rows)
	}
	for _, r := range d.Rows {
		if r.BaseIPC <= 0 || r.DMDCIPC <= 0 {
			t.Errorf("%s: empty IPC", r.Benchmark)
		}
		if r.LQSavedPct < 50 {
			t.Errorf("%s: LQ savings %.1f%% implausible", r.Benchmark, r.LQSavedPct)
		}
	}
	if !strings.Contains(d.String(), "per-benchmark") {
		t.Error("rendering incomplete")
	}
}

func TestWriteCSV(t *testing.T) {
	s := testSuite(t, 30_000, "gzip", "swim")
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf, keyBase("config2")); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 { // header + 2 benchmarks
		t.Fatalf("rows = %d", len(records))
	}
	header := records[0]
	if header[0] != "benchmark" || header[1] != "class" {
		t.Errorf("header wrong: %v", header[:4])
	}
	// Every column name is unique: a stat that shares a fixed column's
	// name must not appear twice.
	seen := map[string]bool{}
	for _, h := range header {
		if seen[h] {
			t.Errorf("duplicate column %q in header %v", h, header)
		}
		seen[h] = true
	}
	// All rows have the header's width.
	for i, rec := range records {
		if len(rec) != len(header) {
			t.Errorf("row %d width %d != header %d", i, len(rec), len(header))
		}
	}
	// A known column must exist.
	var found bool
	for _, h := range header {
		if h == "cycles" || h == "committed" {
			found = true
		}
	}
	if !found {
		t.Error("expected stat columns missing")
	}
}

func TestRunKeysComplete(t *testing.T) {
	keys := RunKeys()
	if len(keys) < 20 {
		t.Fatalf("only %d run keys", len(keys))
	}
	// Every advertised key must resolve to a spec without panicking.
	s := mustSuite(Options{Insts: 1000, Benchmarks: []string{"gzip"}})
	for _, k := range keys {
		func() {
			defer func() {
				if recover() != nil {
					t.Errorf("key %q does not resolve", k)
				}
			}()
			s.specFor(k)
		}()
	}
	// And the reverse: every key the full report runs is advertised.
	s.Report()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	advertised := map[string]bool{}
	for _, k := range keys {
		advertised[k] = true
	}
	s.run.Lock()
	defer s.run.Unlock()
	if len(s.results) == 0 {
		t.Fatal("the report ran no keys")
	}
	for k := range s.results {
		if !advertised[k] {
			t.Errorf("the report ran key %q, which RunKeys does not list", k)
		}
	}
}

// An unknown run key is an input error, not a panic: WriteCSV returns an
// error listing every valid key, and writes and runs nothing.
func TestWriteCSVUnknownKey(t *testing.T) {
	s := mustSuite(Options{Insts: 1000, Benchmarks: []string{"gzip"}})
	var buf bytes.Buffer
	err := s.WriteCSV(&buf, "nonsense")
	if err == nil {
		t.Fatal("unknown run key accepted")
	}
	for _, k := range RunKeys() {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("error %q does not list run key %q", err, k)
		}
	}
	if buf.Len() != 0 || s.Simulated() != 0 {
		t.Errorf("unknown key wrote %d bytes and ran %d simulations", buf.Len(), s.Simulated())
	}
}

// The artifact table is the one list of artifact names: every name is
// unique and renders, an unknown name is an error listing them all, and
// the extensions group prints its four members.
func TestArtifactTable(t *testing.T) {
	names := ArtifactNames()
	if len(names) != 21 {
		t.Errorf("%d artifacts, want 21: %v", len(names), names)
	}
	s := mustSuite(Options{Insts: 2000, Benchmarks: []string{"gzip", "swim"}})
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("artifact %q listed twice", name)
		}
		seen[name] = true
		if out, err := s.Artifact(name); err != nil || out == "" {
			t.Errorf("artifact %q: %d bytes, error %v", name, len(out), err)
		}
	}
	_, err := s.Artifact("figure9")
	if err == nil {
		t.Fatal("unknown artifact accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list artifact %q", err, name)
		}
	}
	ext, _ := s.Artifact("extensions")
	var parts []string
	for _, name := range []string{"tablesweep", "ylasweep", "sqfilter-ext", "clamp"} {
		out, _ := s.Artifact(name)
		parts = append(parts, out)
	}
	if want := strings.Join(parts, "\n"); ext != want {
		t.Errorf("extensions group:\n%s\nwant its members joined by blank lines:\n%s", ext, want)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}
