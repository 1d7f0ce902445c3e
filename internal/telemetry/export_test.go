package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmdc/internal/lsq"
)

func TestCSVShape(t *testing.T) {
	s := New(Config{Stride: 50, Cap: 32})
	samples := seq(5, 50)
	for _, smp := range samples {
		s.Record(smp)
	}
	var buf bytes.Buffer
	if err := s.Snapshot().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if got, want := len(lines), 1+len(samples); got != want {
		t.Fatalf("csv has %d lines, want %d (header + rows)", got, want)
	}
	header := strings.Split(lines[0], ",")
	wantCols := 14 + NumStallCauses + NumDispatchHazards + lsq.NumCauses
	if len(header) != wantCols {
		t.Errorf("header has %d columns, want %d: %v", len(header), wantCols, header)
	}
	// Every stall and hazard counter appears by its exported stat name.
	for c := 0; c < NumStallCauses; c++ {
		if !strings.Contains(lines[0], StallCause(c).StatName()) {
			t.Errorf("header missing %s", StallCause(c).StatName())
		}
	}
	for h := 0; h < NumDispatchHazards; h++ {
		if !strings.Contains(lines[0], DispatchHazard(h).StatName()) {
			t.Errorf("header missing %s", DispatchHazard(h).StatName())
		}
	}
	// Every data row has exactly the header's column count.
	for i, ln := range lines[1:] {
		if got := len(strings.Split(ln, ",")); got != wantCols {
			t.Errorf("row %d has %d columns, want %d", i, got, wantCols)
		}
	}
	// First row: cycle 50, committed 25, interval IPC 25/50.
	first := strings.Split(lines[1], ",")
	if first[0] != "50" || first[1] != "25" || first[4] != "0.5000" {
		t.Errorf("first row = %v, want cycle 50 committed 25 ipc_interval 0.5000", first[:6])
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	s := New(Config{Stride: 10, Cap: 8})
	s.SetMeta(Meta{Benchmark: "swim", Config: "config3", Policy: "yla"})
	for _, smp := range seq(3, 10) {
		s.Record(smp)
	}
	var buf bytes.Buffer
	if err := s.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("series JSON does not round-trip: %v", err)
	}
	if back.Meta.Benchmark != "swim" || back.Stride != 10 || len(back.Samples) != 3 {
		t.Errorf("round-tripped snapshot lost data: %+v", back)
	}
	if back.Samples[2].Cycle != 30 {
		t.Errorf("sample cycle = %d, want 30", back.Samples[2].Cycle)
	}
}

// TestWriteFiles: the three sibling files hold exactly what the three
// writers produce, and a failed create reports the files written so far.
func TestWriteFiles(t *testing.T) {
	s := New(Config{Stride: 10, Cap: 8})
	s.SetMeta(Meta{Benchmark: "gzip", Config: "config2", Policy: "dmdc"})
	for _, smp := range seq(4, 10) {
		s.Record(smp)
	}
	sn := s.Snapshot()
	prefix := filepath.Join(t.TempDir(), "job")
	written, err := sn.WriteFiles(prefix)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []struct {
		suffix string
		write  func(io.Writer) error
	}{{".csv", sn.WriteCSV}, {".series.json", sn.WriteJSON}, {".trace.json", sn.WriteChromeTrace}} {
		if i >= len(written) || written[i] != prefix+w.suffix {
			t.Fatalf("written %v, want %s at %d", written, prefix+w.suffix, i)
		}
		var want bytes.Buffer
		if err := w.write(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(written[i])
		if err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s differs from its writer's output (err=%v)", written[i], err)
		}
	}
	if written, err := sn.WriteFiles(filepath.Join(t.TempDir(), "missing", "job")); err == nil || len(written) != 0 {
		t.Errorf("export into a missing directory: written %v, err %v", written, err)
	}
}

// validateChromeTrace decodes trace_event JSON and checks the structural
// invariants chrome://tracing needs: known phases, non-negative times and
// durations, metadata naming every pipeline lane. Shared with the fuzz
// target, so it must not assume a well-behaved series.
func validateChromeTrace(t *testing.T, raw []byte) ChromeTrace {
	t.Helper()
	var tr ChromeTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	lanes := map[int]bool{}
	for i, e := range tr.TraceEvents {
		switch e.Ph {
		case "M", "X", "C":
		default:
			t.Fatalf("event %d has unknown phase %q", i, e.Ph)
		}
		if e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("event %d has negative time: ts=%v dur=%v", i, e.Ts, e.Dur)
		}
		if e.Ph == "X" {
			lanes[e.Tid] = true
		}
	}
	for _, tid := range []int{tidFetch, tidIssue, tidCommit} {
		if len(lanes) > 0 && !lanes[tid] {
			t.Errorf("duration events present but lane tid=%d missing", tid)
		}
	}
	return tr
}

func TestChromeTraceStructure(t *testing.T) {
	s := New(Config{Stride: 100, Cap: 64})
	s.SetMeta(Meta{Benchmark: "gcc", Config: "config2", Policy: "dmdc"})
	for _, smp := range seq(6, 100) {
		s.Record(smp)
	}
	var buf bytes.Buffer
	if err := s.Snapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr := validateChromeTrace(t, buf.Bytes())
	if tr.OtherData["benchmark"] != "gcc" || tr.OtherData["stride"] != "100" {
		t.Errorf("otherData = %v", tr.OtherData)
	}
	var meta, lanes, counters int
	counterNames := map[string]bool{}
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			lanes++
		case "C":
			counters++
			counterNames[e.Name] = true
		}
	}
	// process_name + three thread_names; three lanes per interval after the
	// first sample (no previous point to difference against).
	if meta != 4 {
		t.Errorf("metadata events = %d, want 4", meta)
	}
	if want := 3 * 6; lanes != want {
		t.Errorf("duration events = %d, want %d", lanes, want)
	}
	for _, name := range []string{"ipc", "occupancy", "replays", "stalls", "dispatch_hazards", "checking"} {
		if !counterNames[name] {
			t.Errorf("missing counter track %q (have %v)", name, counterNames)
		}
	}
	if counters == 0 {
		t.Error("no counter events at all")
	}
}

// A non-monotonic series (as fuzzing produces) must export with every
// interval clamped, never a negative duration or wrapped uint64.
func TestChromeTraceNonMonotonic(t *testing.T) {
	s := New(Config{Stride: 1, Cap: 8})
	s.Record(Sample{Cycle: 1000, Committed: 500, Fetched: 900})
	s.Record(Sample{Cycle: 10, Committed: 700, Fetched: 5}) // goes backwards
	s.Record(Sample{Cycle: 2000, Committed: 600})           // committed regresses
	var buf bytes.Buffer
	if err := s.Snapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	validateChromeTrace(t, buf.Bytes())
	var csv bytes.Buffer
	if err := s.Snapshot().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(csv.String(), "18446744073709") {
		t.Error("csv contains a wrapped uint64 interval")
	}
}

func TestDeltaClamp(t *testing.T) {
	if got := delta(10, 3); got != 0 {
		t.Errorf("delta(10,3) = %d, want 0 (clamped)", got)
	}
	if got := delta(3, 10); got != 7 {
		t.Errorf("delta(3,10) = %d, want 7", got)
	}
}
