package core

import (
	"context"
	"errors"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/lsq"
	"dmdc/internal/soundness"
	"dmdc/internal/trace"
)

func mustFaultSpec(t *testing.T, s string) soundness.FaultSpec {
	t.Helper()
	spec, err := soundness.ParseFaultSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// arenaSim builds a fresh gcc/DMDC sim, on an arena when a is non-nil.
func arenaSim(t *testing.T, a *Arena) *Sim {
	t.Helper()
	cfg := config.Config2()
	prof, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(cfg.CoreSize())
	pol := lsq.Must(lsq.NewDMDC(lsq.DefaultDMDCConfig(cfg.CheckTable, cfg.ROBSize), em))
	var opts []Option
	if a != nil {
		opts = append(opts, WithArena(a))
	}
	return MustSim(New(cfg, prof, pol, em, opts...))
}

// arenaRun builds a fresh gcc/DMDC sim (optionally on an arena) and runs
// it for n committed instructions.
func arenaRun(t *testing.T, a *Arena, n uint64) *Result {
	t.Helper()
	r, err := arenaSim(t, a).RunContext(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A checkpoint restored into a sim on a dirtied arena must run exactly as
// one restored into fresh allocations: restored sampled intervals draw
// their arenas from the shared pool.
func TestArenaReuseRestoreDeterminism(t *testing.T) {
	donor := arenaSim(t, nil)
	if _, err := donor.RunContext(context.Background(), 17_000); err != nil {
		t.Fatal(err)
	}
	blob, err := donor.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	restoreRun := func(a *Arena) *Result {
		s := arenaSim(t, a)
		if err := s.RestoreCheckpoint(blob); err != nil {
			t.Fatal(err)
		}
		r, err := s.RunContext(context.Background(), 20_000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := fingerprint(t, restoreRun(nil))
	a := NewArena()
	arenaRun(t, a, 30_000) // dirties every array
	for run := 0; run < 2; run++ {
		if got := fingerprint(t, restoreRun(a)); got != want {
			t.Fatalf("restored run %d on a reused arena diverged:\ngot  %s\nwant %s", run, got, want)
		}
	}
}

// A run on a dirtied, reused arena must be bit-identical to a run on
// fresh allocations: the simulator never reads a slot it has not
// (re)initialized this run, so the stale contents ensure leaves in place
// are invisible.
func TestArenaReuseDeterminism(t *testing.T) {
	const n = 30_000
	want := arenaRun(t, nil, n)

	a := NewArena()
	first := arenaRun(t, a, n) // dirties every array
	for run, r := range []*Result{first, arenaRun(t, a, n), arenaRun(t, a, n)} {
		if r.Cycles != want.Cycles || r.Insts != want.Insts {
			t.Fatalf("arena run %d: got %d cycles / %d insts, want %d / %d",
				run, r.Cycles, r.Insts, want.Cycles, want.Insts)
		}
		if got, w := r.Stats.String(), want.Stats.String(); got != w {
			t.Fatalf("arena run %d stats diverged:\ngot  %s\nwant %s", run, got, w)
		}
		if got, w := r.Energy.Total(), want.Energy.Total(); got != w {
			t.Fatalf("arena run %d energy: got %v, want %v", run, got, w)
		}
	}
}

// A reused arena must also replay fault campaigns identically — squashes,
// replays, and wrong-path churn exercise every queue reset path.
func TestArenaReuseDeterminismUnderFaults(t *testing.T) {
	run := func(a *Arena) *Result {
		cfg := config.Config2()
		prof, err := trace.ByName("parser")
		if err != nil {
			t.Fatal(err)
		}
		em := energy.NewModel(cfg.CoreSize())
		pol := lsq.Must(lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.ROBSize}, em))
		opts := []Option{WithFaults(mustFaultSpec(t, "alias=8192,spurious=101"))}
		if a != nil {
			opts = append(opts, WithArena(a))
		}
		s := MustSim(New(cfg, prof, pol, em, opts...))
		r, err := s.RunContext(context.Background(), 20_000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run(nil)
	a := NewArena()
	run(a)
	got := run(a)
	if got.Cycles != want.Cycles || got.Stats.String() != want.Stats.String() {
		t.Fatalf("faulted arena rerun diverged: got %d cycles, want %d", got.Cycles, want.Cycles)
	}
}

// A Sim whose run failed must refuse to continue: the pipeline is
// mid-cycle and stepping it again would silently produce garbage.
func TestRunAfterErrorIsPoisoned(t *testing.T) {
	cfg := config.Config2()
	prof, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(cfg.CoreSize())
	pol := lsq.Must(lsq.NewDMDC(lsq.DefaultDMDCConfig(cfg.CheckTable, cfg.ROBSize), em))
	s := MustSim(New(cfg, prof, pol, em))

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // noticed at the first cancellation poll
	if _, err := s.RunContext(ctx, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: got %v, want context.Canceled", err)
	}

	_, err = s.RunContext(context.Background(), 100)
	var pe *PoisonedError
	if !errors.As(err, &pe) {
		t.Fatalf("reuse after cancel: got %v, want *PoisonedError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("poisoned error should wrap the original cause, got %v", err)
	}
	// Poisoning is sticky and keeps reporting the first failure.
	if _, err2 := s.RunContext(context.Background(), 100); !errors.Is(err2, context.Canceled) {
		t.Fatalf("second reuse: got %v, want wrapped context.Canceled", err2)
	}
}

// A clean return does not poison: incremental runs stay supported.
func TestIncrementalRunsStillAllowed(t *testing.T) {
	cfg := config.Config2()
	prof, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(cfg.CoreSize())
	pol := lsq.Must(lsq.NewDMDC(lsq.DefaultDMDCConfig(cfg.CheckTable, cfg.ROBSize), em))
	s := MustSim(New(cfg, prof, pol, em))
	r1 := s.MustRun(5_000)
	r2 := s.MustRun(5_000)
	if r2.Insts != r1.Insts+5_000 {
		t.Fatalf("incremental run: got %d insts after second run, want %d", r2.Insts, r1.Insts+5_000)
	}
}
