package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
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

// arenaCell is one simulation an arena-reuse test runs: a machine, a
// benchmark, one of ckptSim's policy kinds, and an invalidation rate per
// 1000 cycles (0: none).
type arenaCell struct {
	machine    config.Machine
	bench, pol string
	inval      float64
}

func (c arenaCell) String() string { return c.bench + "/" + c.machine.Name + "/" + c.pol }

// sim builds the cell's Sim, on arena a when a is non-nil.
func (c arenaCell) sim(a *Arena) (*Sim, error) {
	var opts []Option
	if c.inval > 0 {
		opts = append(opts, WithInvalidations(c.inval))
	}
	if a != nil {
		opts = append(opts, WithArena(a))
	}
	return newPolicySim(c.machine, c.bench, c.pol, opts...)
}

// runAndSave runs s for n more committed instructions and returns the
// result's fingerprint and a checkpoint of the state it ends in.
func runAndSave(t *testing.T, s *Sim, n uint64) (string, []byte) {
	t.Helper()
	r, err := s.RunContext(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, r), blob
}

// One arena driven through machines whose ROBs grow and shrink, through
// other profiles, policies and options, and then into a restore, must
// reproduce every fresh-arena Result and checkpoint byte: each table a Sim
// takes from the arena (ROB, queues, caches, predictor, generator, RNGs)
// is rebuilt exactly as a fresh one is built.
func TestArenaReuseAcrossMachines(t *testing.T) {
	const n = 8_000
	cells := []arenaCell{
		{config.IQPressure(), "gcc", "dmdc", 0},
		{config.Config3(), "swim", "yla", 0},
		{config.Config1(), "perlbmk", "valuebased", 0},
		{config.Config2(), "gcc", "dmdc", 5},
	}
	build := func(c arenaCell, a *Arena) *Sim {
		t.Helper()
		s, err := c.sim(a)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	check := func(what string, fresh, reused func() (string, []byte)) {
		t.Helper()
		wantRes, wantBlob := fresh()
		gotRes, gotBlob := reused()
		if gotRes != wantRes {
			t.Fatalf("%s on a reused arena: result diverged:\ngot  %s\nwant %s", what, gotRes, wantRes)
		}
		if !bytes.Equal(gotBlob, wantBlob) {
			t.Fatalf("%s on a reused arena: checkpoint diverged (%d vs %d bytes)", what, len(gotBlob), len(wantBlob))
		}
	}
	a := NewArena()
	for _, c := range cells {
		check(c.String(),
			func() (string, []byte) { return runAndSave(t, build(c, nil), n) },
			func() (string, []byte) { return runAndSave(t, build(c, a), n) })
	}
	// Restore a gcc/config2 checkpoint into the arena the sequence left
	// behind, whose generator has followed wrong paths.
	last := cells[len(cells)-1]
	_, blob := runAndSave(t, build(last, nil), 13_000)
	restored := func(a *Arena) func() (string, []byte) {
		return func() (string, []byte) {
			s := build(last, a)
			if err := s.RestoreCheckpoint(blob); err != nil {
				t.Fatal(err)
			}
			return runAndSave(t, s, n)
		}
	}
	check("restored "+last.String(), restored(nil), restored(a))
}

// Pooled cells of alternating machines, run from several goroutines at
// once, must each reproduce their serial fresh-arena result: the pool
// hands each arena to one Sim at a time. `make race` runs this under the
// race detector (it covers ./internal/core/... in -short mode).
func TestPooledArenaConcurrentCells(t *testing.T) {
	const n = 3_000
	cells := []arenaCell{
		{config.Config1(), "gcc", "dmdc", 0},
		{config.Config3(), "swim", "cam", 0},
		{config.IQPressure(), "perlbmk", "valuebased", 0},
		{config.Config2(), "gzip", "yla", 5},
	}
	run := func(c arenaCell, a *Arena) (*Result, error) {
		s, err := c.sim(a)
		if err != nil {
			return nil, err
		}
		return s.RunContext(context.Background(), n)
	}
	want := make([]string, len(cells))
	for i, c := range cells {
		r, err := run(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprint(t, r)
	}
	const workers, rounds = 4, 2
	got := make([][]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds*len(cells); k++ {
				a := PooledArena()
				r, err := run(cells[(w+k)%len(cells)], a)
				a.Release()
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = append(got[w], r)
			}
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for k, r := range got[w] {
			i := (w + k) % len(cells)
			if g := fingerprint(t, r); g != want[i] {
				t.Fatalf("worker %d, run %d (%s): pooled result diverged:\ngot  %s\nwant %s", w, k, cells[i], g, want[i])
			}
		}
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
