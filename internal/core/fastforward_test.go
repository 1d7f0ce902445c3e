package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/trace"
)

// ffStep is one FastForward call.
type ffStep struct {
	n    uint64
	warm bool
}

// ffPinBlock is the block length the pinned lengths straddle: one below,
// at and one above it, several blocks plus a remainder, and a cold skip
// followed by a warm remainder.
const ffPinBlock = 1024

var ffPinCases = []struct {
	name  string
	steps []ffStep
}{
	{"below", []ffStep{{ffPinBlock - 1, true}}},
	{"at", []ffStep{{ffPinBlock, true}}},
	{"above", []ffStep{{ffPinBlock + 1, true}}},
	{"blocks", []ffStep{{5*ffPinBlock + 37, true}}},
	{"cold-warm", []ffStep{{3000, false}, {2*ffPinBlock + 5, true}}},
}

// ffPins holds the SHA-256 of SaveCheckpoint after each case, taken from
// the serial loop that warmed one instruction at a time: the pipelined
// fast-forward must leave every byte of the state where that loop did.
var ffPins = map[string]string{
	"gcc/dmdc/below":     "6cd8eb5170ab07a28288352f721bd3bc89558801e40baaf5bb686936e41c02de",
	"gcc/dmdc/at":        "da02492fac19098165492be9ffc054397f32c7588cd5b825c2f087a90fc066eb",
	"gcc/dmdc/above":     "c9cf77e217b3ccdd3df146bdb3c805f2703e2049ffdbb83b86b9ce5fcd44636a",
	"gcc/dmdc/blocks":    "1c6ea6c86093182fea10f69aceda90bbf35d9a58b1a75379fb054bebe5d4557d",
	"gcc/dmdc/cold-warm": "742b2166b0a48adcff6db2adfa3bd3a3d49c7303ef7e6722f810cde80e48897c",
	"swim/yla/below":     "d15649c130af01d61656894d9b3835939748a454a1fcb1dada7a211fe9ac124f",
	"swim/yla/at":        "ec7ab881ebb47e7996772e2e9adac0c72ea7642e86eee0ea6a562b32928ceec7",
	"swim/yla/above":     "1d84eb7d698638afb5fa6a4712021aba3ce978636aee72269230fd114511435e",
	"swim/yla/blocks":    "8bd33ee7fb92e1b89f0a4fed04f5802ad1c9a038674b034bd6b73bb29b13bc66",
	"swim/yla/cold-warm": "503bb45cd297911823af34a497fa112bfc792a2bcac5929b8ff6d6e29a1e2f94",
}

// ffHash fast-forwards a fresh Config2 sim through steps and hashes its
// checkpoint.
func ffHash(t *testing.T, bench, pol string, steps []ffStep) string {
	t.Helper()
	s := policySim(t, config.Config2(), bench, pol)
	for _, st := range steps {
		if err := s.FastForward(st.n, st.warm); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := s.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestFastForwardPinned pins the state warm fast-forwards leave behind
// around the block length, and shows that a warm fast-forward split in two
// lands on the unsplit state wherever the split falls.
func TestFastForwardPinned(t *testing.T) {
	if ffBlock != ffPinBlock {
		t.Fatalf("ffBlock is %d: pick lengths around it again (the pins do not depend on it)", ffBlock)
	}
	for _, p := range []struct{ bench, pol string }{{"gcc", "dmdc"}, {"swim", "yla"}} {
		for _, c := range ffPinCases {
			key := p.bench + "/" + p.pol + "/" + c.name
			if got := ffHash(t, p.bench, p.pol, c.steps); got != ffPins[key] {
				t.Errorf("%s: checkpoint sha256 %s, pinned %s", key, got, ffPins[key])
			}
		}
		const n = 5*ffPinBlock + 37
		want := ffPins[p.bench+"/"+p.pol+"/blocks"]
		for _, a := range []uint64{1, ffPinBlock - 1, ffPinBlock, ffPinBlock + 1, 3000, n - 1} {
			if got := ffHash(t, p.bench, p.pol, []ffStep{{a, true}, {n - a, true}}); got != want {
				t.Errorf("%s/%s: FastForward(%d)+FastForward(%d) hashes %s, unsplit %s", p.bench, p.pol, a, n-a, got, want)
			}
		}
	}
}

// hookWorkload is a checkpointable workload that calls hook before each
// NextBatch with the number of instructions generated so far, and counts
// the NextBatch calls in progress.
type hookWorkload struct {
	CheckpointableWorkload
	hook     func(generated int)
	done     int
	inFlight atomic.Int32
}

func (w *hookWorkload) NextBatch(dst []isa.Inst) int {
	w.inFlight.Add(1)
	defer w.inFlight.Add(-1)
	w.hook(w.done)
	k := w.CheckpointableWorkload.NextBatch(dst)
	w.done += k
	return k
}

// hookPolicy is a checkpointable YLA policy that calls hook on the load
// after the first left it warms.
type hookPolicy struct {
	*lsq.CAM
	left int
	hook func()
}

func (p *hookPolicy) WarmLoad(addr, age uint64) {
	if p.left--; p.left < 0 {
		p.hook()
	}
	p.CAM.WarmLoad(addr, age)
}

// ffPanicSim builds a Config2 gcc sim over hook's workload and a YLA
// policy that calls warmHook on the load after the first warmLeft.
func ffPanicSim(t *testing.T, hook func(int), warmLeft int, warmHook func()) (*Sim, *hookWorkload) {
	t.Helper()
	cfg := config.Config2()
	prof, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	wl := &hookWorkload{
		CheckpointableWorkload: FromGenerator(trace.NewGenerator(prof)).(CheckpointableWorkload),
		hook:                   hook,
	}
	em := energy.NewModel(cfg.CoreSize())
	cam, err := lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize, Filter: lsq.FilterYLA, YLARegs: 8}, em)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithWorkload(cfg, wl, &hookPolicy{CAM: cam, left: warmLeft, hook: warmHook}, em)
	if err != nil {
		t.Fatal(err)
	}
	return s, wl
}

// ffPanic runs a warm fast-forward that must panic and checks that the
// panic reaches this goroutine with value want, that the generating
// stage had left NextBatch by then, and that no goroutine outlives the
// call.
func ffPanic(t *testing.T, s *Sim, wl *hookWorkload, n uint64, want any) {
	t.Helper()
	before := runtime.NumGoroutine()
	got := func() (r any) {
		defer func() { r = recover() }()
		if err := s.FastForward(n, true); err != nil {
			t.Fatal(err)
		}
		return nil
	}()
	if got != want {
		t.Fatalf("FastForward panicked with %v, want %v", got, want)
	}
	if wl.inFlight.Load() != 0 {
		t.Fatal("FastForward returned while its generating stage was inside NextBatch")
	}
	// The helper's last act is closing its queue; it may take a moment
	// longer to leave the scheduler's count.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panic, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFastForwardGeneratorPanic panics in the generating stage mid-block.
func TestFastForwardGeneratorPanic(t *testing.T) {
	fault := errors.New("generator fault")
	s, wl := ffPanicSim(t, func(generated int) {
		if generated > 2*ffBlock+300 {
			panic(fault)
		}
	}, 1<<30, nil)
	ffPanic(t, s, wl, 10*ffBlock, fault)
}

// TestFastForwardWarmPanic panics in the warming stage while the
// generating stage is mid-block: FastForward must stop that stage and
// wait for it to leave the workload before the panic leaves FastForward.
func TestFastForwardWarmPanic(t *testing.T) {
	fault := errors.New("warm fault")
	parked, release := make(chan struct{}), make(chan struct{})
	stalled := false
	// The generating stage stalls inside its second block until the
	// warming stage, at the eleventh load of the first, is about to
	// panic. It then dawdles inside NextBatch, so a FastForward that did
	// not wait for it would return while it is still there.
	s, wl := ffPanicSim(t, func(generated int) {
		if generated >= ffBlock+10 && !stalled {
			stalled = true
			close(parked)
			<-release
			time.Sleep(20 * time.Millisecond)
		}
	}, 10, func() {
		<-parked
		close(release)
		panic(fault)
	})
	ffPanic(t, s, wl, 20*ffBlock, fault)
}
