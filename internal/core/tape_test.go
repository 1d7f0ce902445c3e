package core

import (
	"encoding/json"
	"strings"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/trace"
)

func recordTape(t *testing.T, bench string, n int) *trace.Tape {
	t.Helper()
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	tape := new(trace.Tape)
	tape.Record(prof, n)
	return tape
}

func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTapeSimMatchesLive: a Sim replaying a tape commits the generator's
// exact path and ends in the Result of a Sim that generates it, both when
// the tape covers the run and when it ends early and the Sim hands off to
// live generation part way.
func TestTapeSimMatchesLive(t *testing.T) {
	const n = 20000
	for _, bench := range []string{"gcc", "swim"} {
		want := resultJSON(t, dmdcSim(t, bench, false).MustRun(n))
		for _, length := range []int{n + FetchAhead(config.Config2()), n / 3} {
			s := dmdcSim(t, bench, false, WithTape(recordTape(t, bench, length)))
			committedStreamMatches(t, s, bench, n)
			if got := resultJSON(t, s.MustRun(0)); got != want {
				t.Errorf("%s over a %d-instruction tape: result differs from live generation", bench, length)
			}
		}
	}
}

// TestTapeNotCheckpointable: a Sim that replays a tape refuses to save a
// checkpoint or fast-forward, with the not-checkpointable workload error.
func TestTapeNotCheckpointable(t *testing.T) {
	s := camSim(t, "gzip", WithTape(recordTape(t, "gzip", 1000)))
	if _, err := s.SaveCheckpoint(); err == nil || !strings.Contains(err.Error(), "is not checkpointable") {
		t.Errorf("SaveCheckpoint over a tape: %v, want a not-checkpointable error", err)
	}
	if err := s.FastForward(100, true); err == nil || !strings.Contains(err.Error(), "is not checkpointable") {
		t.Errorf("FastForward over a tape: %v, want a not-checkpointable error", err)
	}
}

// TestTapeRefusedElsewhere: a tape stands in only for its own profile's
// generator.
func TestTapeRefusedElsewhere(t *testing.T) {
	cfg := config.Config2()
	em := energy.NewModel(cfg.CoreSize())
	pol := lsq.Must(lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize}, em))
	prof, _ := trace.ByName("gcc")
	if _, err := New(cfg, prof, pol, em, WithTape(recordTape(t, "swim", 100))); err == nil {
		t.Error("a swim tape stood in for gcc")
	}
	if _, err := NewWithWorkload(cfg, FromGenerator(trace.NewGenerator(prof)), pol, em, WithTape(recordTape(t, "gcc", 100))); err == nil {
		t.Error("a tape was accepted beside an explicit workload")
	}
}

// countingWorkload counts the committed-path instructions drawn from wl.
type countingWorkload struct {
	Workload
	drawn int
}

func (w *countingWorkload) Next() isa.Inst { w.drawn++; return w.Workload.Next() }

func (w *countingWorkload) NextBatch(dst []isa.Inst) int {
	n := w.Workload.(Batcher).NextBatch(dst)
	w.drawn += n
	return n
}

// TestFetchAheadBounds: no run draws more than FetchAhead instructions
// past its budget, on any machine, so a tape that much longer than the
// budget is never read to its end.
func TestFetchAheadBounds(t *testing.T) {
	const n = 6000
	for _, m := range append(config.All(), config.IQPressure()) {
		for _, bench := range []string{"gcc", "swim", "mcf"} {
			prof, _ := trace.ByName(bench)
			em := energy.NewModel(m.CoreSize())
			pol := lsq.Must(lsq.NewDMDC(lsq.DefaultDMDCConfig(m.CheckTable, m.ROBSize), em))
			wl := &countingWorkload{Workload: FromGenerator(trace.NewGenerator(prof))}
			s := MustSim(NewWithWorkload(m, wl, pol, em))
			r := s.MustRun(n)
			if ahead := wl.drawn - n; ahead > FetchAhead(m) {
				t.Errorf("%s/%s: drew %d instructions for %d committed (budget %d), %d ahead, FetchAhead %d",
					m.Name, bench, wl.drawn, r.Insts, n, ahead, FetchAhead(m))
			}
		}
	}
}
