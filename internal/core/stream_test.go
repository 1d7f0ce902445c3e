package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/trace"
)

// liveWorkload hides core's generator behind a type core does not
// recognize, so a Sim over it generates its committed path on the
// pipeline's goroutine: the reference a streamed Sim must match.
type liveWorkload struct {
	CheckpointableWorkload
}

// liveSim is newPolicySim over the live path.
func liveSim(t *testing.T, cfg config.Machine, bench, polKind string) *Sim {
	t.Helper()
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(cfg.CoreSize())
	pol, err := newPolicy(cfg, polKind, em)
	if err != nil {
		t.Fatal(err)
	}
	wl := liveWorkload{FromGenerator(trace.NewGenerator(prof)).(CheckpointableWorkload)}
	s, err := NewWithWorkload(cfg, wl, pol, em)
	if err != nil {
		t.Fatal(err)
	}
	if s.stream != nil {
		t.Fatal("a Sim over a wrapped generator streams")
	}
	return s
}

// midBlock reports whether s's pipeline has replayed part, not all, of
// the block it replays.
func (s *Sim) midBlock() bool {
	st := s.stream
	return st.cur != nil && st.pos > 0 && st.pos < st.cur.Len()
}

// streamPolicies are ckptSim's policy kinds.
var streamPolicies = []string{"cam", "yla", "dmdc", "dmdc-local", "valuebased", "agetable", "bloom", "dmdc-queue"}

// TestStreamMatchesLive: a streamed Sim gives the live path's Results and
// checkpoint bytes after a warm fast-forward, after a run, after a second
// run that resumes the records the first left buffered (saved mid-block),
// after a further run that streams from the settled generator, and after
// a run restored from the mid-block save — on every profile under DMDC
// and every policy kind on gcc and swim.
func TestStreamMatchesLive(t *testing.T) {
	type cell struct{ bench, pol string }
	var cells []cell
	for _, p := range trace.Profiles() {
		cells = append(cells, cell{p.Name, "dmdc"})
	}
	for _, bench := range []string{"gcc", "swim"} {
		for _, pol := range streamPolicies {
			if pol != "dmdc" {
				cells = append(cells, cell{bench, pol})
			}
		}
	}
	cfg := config.Config2()
	mid := 0
	for _, c := range cells {
		name := c.bench + "/" + c.pol
		streamed, live := policySim(t, cfg, c.bench, c.pol), liveSim(t, cfg, c.bench, c.pol)
		if streamed.stream == nil {
			t.Fatalf("%s: a Sim over its own generator does not stream", name)
		}
		step := func(what string, do func(*Sim) (string, []byte)) []byte {
			t.Helper()
			gotRes, gotBlob := do(streamed)
			wantRes, wantBlob := do(live)
			if gotRes != wantRes {
				t.Fatalf("%s %s: streamed result differs from the live path's:\ngot  %s\nwant %s", name, what, gotRes, wantRes)
			}
			if !bytes.Equal(gotBlob, wantBlob) {
				t.Fatalf("%s %s: streamed checkpoint differs from the live path's", name, what)
			}
			return gotBlob
		}
		step("fast-forward", func(s *Sim) (string, []byte) {
			if err := s.FastForward(1000, true); err != nil {
				t.Fatal(err)
			}
			return "", save(t, s)
		})
		step("first run", run(t, 1000))
		if st := streamed.stream; st.made <= st.used {
			t.Fatalf("%s: the first run left no records for the second to resume", name)
		}
		step("resumed run", run(t, 1200))
		if streamed.midBlock() {
			mid++
		}
		blob := step("save after two runs", func(s *Sim) (string, []byte) { return "", save(t, s) })
		if streamed.stream.synced {
			t.Fatalf("%s: the stream is still synced after a save", name)
		}
		step("run after the save", run(t, 1000))
		step("final save", func(s *Sim) (string, []byte) { return "", save(t, s) })
		streamed, live = policySim(t, cfg, c.bench, c.pol), liveSim(t, cfg, c.bench, c.pol)
		step("restored run", func(s *Sim) (string, []byte) {
			if err := s.RestoreCheckpoint(blob); err != nil {
				t.Fatal(err)
			}
			return run(t, 1000)(s)
		})
	}
	if mid == 0 {
		t.Error("no save settled a stream part way through a block")
	}
}

// run returns a step that runs a Sim n more instructions and
// fingerprints its Result.
func run(t *testing.T, n uint64) func(*Sim) (string, []byte) {
	return func(s *Sim) (string, []byte) {
		t.Helper()
		r, err := s.RunContext(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, r), nil
	}
}

// save checkpoints s.
func save(t *testing.T, s *Sim) []byte {
	t.Helper()
	blob, err := s.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestStreamSettleAtBlockEdges draws exactly k instructions from a
// streamed Sim's workload — none, a block's last, the next block's
// first, and part way through one — then fast-forwards it, which settles
// the stream, saves, runs and saves again; every instruction, Result and
// checkpoint byte must be a live Sim's that did the same. A stream
// started as for a run of no instructions records only FetchAhead, so
// drawing more makes the pipeline extend it a block at a time.
func TestStreamSettleAtBlockEdges(t *testing.T) {
	cfg := config.Config2()
	ahead := FetchAhead(cfg)
	budgets := []struct {
		n    uint64
		cuts []int
	}{
		{1 << 20, []int{0, 1, streamFirst - 1, streamFirst, streamFirst + 1,
			streamFirst + streamBlock, streamFirst + streamBlock + 1, streamFirst + 2*streamBlock + 517}},
		{uint64(ahead), []int{ahead - 1, ahead, ahead + 1, ahead + streamBlock, ahead + streamBlock + 1, ahead + 2*streamBlock + 517}},
	}
	for _, bench := range []string{"gcc", "swim", "mcf"} {
		for _, b := range budgets {
			for _, k := range b.cuts {
				settleAt(t, cfg, bench, b.n, k)
			}
		}
	}
}

// settleAt is one TestStreamSettleAtBlockEdges case: a stream started to
// record n records, settled after k.
func settleAt(t *testing.T, cfg config.Machine, bench string, n uint64, k int) {
	t.Helper()
	streamed, live := policySim(t, cfg, bench, "dmdc"), liveSim(t, cfg, bench, "dmdc")
	streamed.stream.start(n)
	var a, b [8]isa.Inst
	for drawn := 0; drawn < k; {
		n := streamed.wlBatch.NextBatch(a[:min(len(a), k-drawn)])
		if m := live.wlBatch.NextBatch(b[:n]); m != n {
			t.Fatalf("%s: streamed batch of %d where the live path gave %d", bench, n, m)
		}
		if !slices.Equal(a[:n], b[:n]) {
			t.Fatalf("%s: instructions %d.. differ from the live path's", bench, drawn)
		}
		drawn += n
	}
	streamed.stream.producer.join()
	if st := streamed.stream; uint64(k) > n && st.limit == n {
		t.Fatalf("%s: %d instructions drawn from a stream that was never extended past %d", bench, k, n)
	}
	for _, s := range []*Sim{streamed, live} {
		if err := s.FastForward(1000, true); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(save(t, streamed), save(t, live)) {
		t.Fatalf("%s: settled after %d of %d instructions and fast-forwarded, the stream checkpoints differently from the live path", bench, k, n)
	}
	got, _ := run(t, 2000)(streamed)
	want, _ := run(t, 2000)(live)
	if got != want {
		t.Fatalf("%s: a run after settling at %d of %d differs from the live path's", bench, k, n)
	}
	if !bytes.Equal(save(t, streamed), save(t, live)) {
		t.Fatalf("%s: a run after settling at %d of %d checkpoints differently from the live path", bench, k, n)
	}
}

// blocksHome reports whether every block of s's stream is free, full or
// being replayed: none is in a producer's hands.
func blocksHome(s *Sim) bool {
	st := s.stream
	n := len(st.free) + len(st.full)
	if st.cur != nil {
		n++
	}
	return n == streamRing
}

// settleGoroutines waits until no more than want goroutines run: a
// joined goroutine may take a moment longer to leave the scheduler's
// count.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// panicPolicy is a CAM that calls hook before it dispatches each load.
type panicPolicy struct {
	*lsq.CAM
	hook func()
}

func (p *panicPolicy) LoadDispatch(op *lsq.MemOp) {
	p.hook()
	p.CAM.LoadDispatch(op)
}

// TestStreamLifecycle: RunContext stops and joins its producer however it
// ends — at the budget, with an error, on a canceled context, or with a
// pipeline panic while the producer is part way through a block — so no
// goroutine outlives the call and every block is back in the ring.
func TestStreamLifecycle(t *testing.T) {
	cfg := config.Config2()
	before := runtime.NumGoroutine()
	check := func(what string, s *Sim) {
		t.Helper()
		if s.stream.producer.running() {
			t.Fatalf("%s: the producer is still running", what)
		}
		if !blocksHome(s) {
			t.Fatalf("%s: a block is still in the producer's hands", what)
		}
		settleGoroutines(t, before)
	}

	s := policySim(t, cfg, "gcc", "dmdc")
	if _, err := s.RunContext(context.Background(), 20_000); err != nil {
		t.Fatal(err)
	}
	check("budget", s)

	s = policySim(t, cfg, "mcf", "dmdc", WithWatchdog(3))
	if _, err := s.RunContext(context.Background(), 100_000); err == nil {
		t.Fatal("a 3-cycle watchdog never fired")
	}
	check("error", s)

	s = policySim(t, cfg, "gcc", "dmdc")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: %v, want context.Canceled", err)
	}
	check("canceled context", s)

	// The pipeline panics at the first load it dispatches while the
	// producer holds a block. With one P the producer runs only while
	// the pipeline waits, so it never holds one then; the pipeline
	// panics at its 500th load instead. With more, a run in which the
	// host never let the producer run beside the pipeline is tried again.
	for try := 0; ; try++ {
		sim, held := pipelinePanic(t, cfg)
		check("pipeline panic", sim)
		if held || runtime.GOMAXPROCS(0) == 1 {
			break
		}
		if try == 2 {
			t.Fatal("in three runs the pipeline never panicked while the producer held a block")
		}
	}
}

// pipelinePanic runs a gcc Sim whose policy panics at the first load
// dispatched while the producer holds a block (with one P, at the 500th
// load), checks that the panic reaches RunContext's caller, and returns
// the Sim and whether the producer held a block.
func pipelinePanic(t *testing.T, cfg config.Machine) (sim *Sim, held bool) {
	t.Helper()
	fault := errors.New("pipeline fault")
	prof, _ := trace.ByName("gcc")
	em := energy.NewModel(cfg.CoreSize())
	loads := 0
	pol := &panicPolicy{CAM: lsq.Must(lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize}, em)), hook: func() {
		loads++
		if !blocksHome(sim) {
			held = true
			panic(fault)
		}
		if runtime.GOMAXPROCS(0) == 1 && loads > 500 {
			panic(fault)
		}
	}}
	sim = MustSim(New(cfg, prof, pol, em))
	got := func() (r any) {
		defer func() { r = recover() }()
		sim.RunContext(context.Background(), 300_000)
		return nil
	}()
	if got != fault && got != nil {
		t.Fatalf("RunContext panicked with %v, want %v", got, fault)
	}
	if got == nil && runtime.GOMAXPROCS(0) == 1 {
		t.Fatal("RunContext did not panic")
	}
	return sim, held
}

// TestStreamProducerPanic: a panic on the producer's goroutine reaches
// RunContext's caller with its original value, and no goroutine outlives
// the call. The producer's generator is corrupted between two runs, so
// the second run's producer indexes past the CFG.
func TestStreamProducerPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	s := policySim(t, config.Config2(), "gcc", "dmdc")
	if _, err := s.RunContext(context.Background(), 2_000); err != nil {
		t.Fatal(err)
	}
	cur := reflect.ValueOf(&s.stream.src).Elem().FieldByName("cur")
	*(*int)(unsafe.Pointer(cur.UnsafeAddr())) = 1 << 40
	got := func() (r any) {
		defer func() { r = recover() }()
		s.RunContext(context.Background(), 20_000)
		return nil
	}()
	re, ok := got.(runtime.Error)
	if !ok || !strings.Contains(re.Error(), "index out of range [1099511627776]") {
		t.Fatalf("RunContext panicked with %v, want the producer's index-out-of-range runtime error", got)
	}
	if s.stream.producer.running() {
		t.Fatal("the producer is still running")
	}
	settleGoroutines(t, before)
}
