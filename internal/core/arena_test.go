package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"unsafe"

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

// poison fills every slice a owns, to capacity, with a non-zero byte
// pattern: a run on a poisoned arena reads garbage wherever it reads
// storage ensure did not reset. It finds the slices by reflection, so a
// slice added to Arena later is poisoned too. The tables (caches,
// predictor, RNGs) rebuild through their Reset paths, which their own
// TestResetMatchesNew* tests pin. The generators' dynamic state — the
// arena generator's, the stream producer's and every block snapshot's —
// is poisoned too, and so are the blocks' records: the stream must
// overwrite all of it before it reads any.
func (a *Arena) poison(t *testing.T) {
	t.Helper()
	v := reflect.ValueOf(a).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			poisonSlice(t, v.Type().Field(i).Name, f)
		}
	}
	poisonGenerator(t, reflect.ValueOf(&a.gen).Elem())
	poisonGenerator(t, reflect.ValueOf(&a.stream.src).Elem())
	for i := range a.stream.ring {
		b := reflect.ValueOf(&a.stream.ring[i]).Elem()
		poisonSlice(t, "stream block records", b.FieldByName("recs"))
		poisonGenerator(t, b.FieldByName("start"))
	}
}

// poisonGenerator poisons the dynamic state of g, a trace.Generator: its
// register and store rings, its RNG, its stream pointers and its branch
// sites' counters. The static CFG is shared with every generator of the
// profile, so it is left alone.
func poisonGenerator(t *testing.T, g reflect.Value) {
	t.Helper()
	for _, name := range []string{"destRing", "aluRing", "loadRing", "fpRing", "storeRing"} {
		poisonValue(g.FieldByName(name))
	}
	poisonSlice(t, "seqPtrs", g.FieldByName("seqPtrs"))
	poisonSlice(t, "counters", g.FieldByName("counters"))
	if rng := g.FieldByName("rng"); !rng.IsNil() {
		poisonValue(rng.Elem())
	}
}

// poisonValue overwrites every byte of the addressable value v with 0x01.
func poisonValue(v reflect.Value) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(v.UnsafeAddr())), v.Type().Size())
	for i := range b {
		b[i] = 0x01
	}
}

// poisonSlice overwrites every byte of s's backing array with 0x01, so
// bools read true and every index, link or age is far out of range. A
// slice of slices (the event wheel) is poisoned slot by slot.
func poisonSlice(t *testing.T, name string, s reflect.Value) {
	t.Helper()
	s = s.Slice(0, s.Cap())
	elem := s.Type().Elem()
	if elem.Kind() == reflect.Slice {
		for i := 0; i < s.Len(); i++ {
			poisonSlice(t, name, s.Index(i))
		}
		return
	}
	if !plainData(elem) {
		t.Fatalf("arena slice %s holds %v, which has pointers; poison only fills plain data", name, elem)
	}
	if s.Len() == 0 {
		return
	}
	b := unsafe.Slice((*byte)(s.UnsafePointer()), s.Len()*int(elem.Size()))
	for i := range b {
		b[i] = 0x01
	}
}

// plainData reports whether values of t hold no pointers.
func plainData(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return true
	case reflect.Array:
		return plainData(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !plainData(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// A poisoned arena must give every Result and checkpoint byte a fresh one
// gives: ensure hands out exactly what a fresh arena holds. Each cell
// saves a checkpoint after a warm fast-forward, before any detailed
// cycle — it encodes every ROB slot and wakeup link as ensure left them —
// then restores it on another poisoned arena and runs in detail twice,
// the second run replaying the records the first left buffered, and
// saves again part way through a streamed block. The machines' ROBs grow
// and shrink along the sequence, and so do the profiles' CFGs.
func TestArenaPoisonedReuse(t *testing.T) {
	const ff, n = 20_000, 3_000
	cells := []arenaCell{
		{config.Config3(), "swim", "dmdc", 0},
		{config.Config2(), "gcc", "dmdc", 0},
		{config.IQPressure(), "mcf", "dmdc-local", 0},
		{config.Config1(), "perlbmk", "valuebased", 5},
		{config.Config2(), "gzip", "yla", 0},
		{config.Config2(), "gzip", "dmdc", 0},
	}
	type outcome struct {
		pass, end  []byte // checkpoints after the fast-forward and the runs
		res, again string // the first run's Result and the resumed run's
	}
	run := func(c arenaCell, pass, detail *Arena) outcome {
		t.Helper()
		s, err := c.sim(pass)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FastForward(ff, true); err != nil {
			t.Fatal(err)
		}
		var o outcome
		if o.pass, err = s.SaveCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if detail != nil {
			detail.poison(t)
		}
		r, err := c.sim(detail)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RestoreCheckpoint(o.pass); err != nil {
			t.Fatal(err)
		}
		res, err := r.RunContext(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		o.res = fingerprint(t, res)
		if !r.midBlock() {
			t.Fatalf("%s: the first run ended on a block boundary; pick another length", c)
		}
		o.again, o.end = runAndSave(t, r, n)
		return o
	}
	pass, detail := NewArena(), NewArena()
	run(cells[len(cells)-1], pass, detail) // size both arenas
	for _, c := range cells {
		want := run(c, nil, nil)
		pass.poison(t)
		got := run(c, pass, detail)
		switch {
		case !bytes.Equal(got.pass, want.pass):
			t.Fatalf("%s: checkpoint before any detailed cycle differs on a poisoned arena", c)
		case got.res != want.res:
			t.Fatalf("%s: result differs on a poisoned arena:\ngot  %s\nwant %s", c, got.res, want.res)
		case got.again != want.again:
			t.Fatalf("%s: resumed run's result differs on a poisoned arena:\ngot  %s\nwant %s", c, got.again, want.again)
		case !bytes.Equal(got.end, want.end):
			t.Fatalf("%s: checkpoint after the streamed runs differs on a poisoned arena", c)
		}
	}
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
