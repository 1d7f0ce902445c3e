package core

import (
	"errors"
	"strings"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/soundness"
)

// wakeupSim builds a config2 pipeline over a scripted sequence with extra
// options — the invariant knobs the wakeup tests exercise.
func wakeupSim(insts []isa.Inst, opts ...Option) *Sim {
	cfg := config.Config2()
	em := energy.NewModel(cfg.CoreSize())
	return MustSim(NewWithWorkload(cfg, newScripted(insts), camFactory(cfg, em), em, opts...))
}

func TestReadyBitmapCounts(t *testing.T) {
	s := wakeupSim(nil)
	slots := []int{0, 1, 63, 64, 65, 200, 255}
	for _, idx := range slots {
		s.setReady(idx)
		s.setReady(idx) // idempotent: must not double-count
	}
	if s.readyCnt != len(slots) {
		t.Fatalf("readyCnt = %d after setting %d distinct slots", s.readyCnt, len(slots))
	}
	for _, idx := range slots {
		if !s.readyAt(idx) {
			t.Errorf("slot %d not ready after setReady", idx)
		}
	}
	if s.readyAt(2) || s.readyAt(66) {
		t.Error("untouched slots report ready")
	}
	for _, idx := range slots {
		s.clearReady(idx)
		s.clearReady(idx) // idempotent the other way
	}
	if s.readyCnt != 0 {
		t.Fatalf("readyCnt = %d after clearing every slot", s.readyCnt)
	}
}

func TestConsumerChainLinkage(t *testing.T) {
	s := wakeupSim(nil)
	const prod = 2
	for _, c := range []int{5, 6, 7} {
		s.setReady(c)
		s.parkOn(c, prod)
		if s.readyAt(c) {
			t.Errorf("slot %d still ready after parkOn", c)
		}
	}
	// Chain is head-pushed: 7 -> 6 -> 5.
	walk := func() []int32 {
		var got []int32
		for c := s.consHead[prod]; c >= 0; c = s.consNext[c] {
			got = append(got, c)
			if len(got) > 8 {
				t.Fatal("chain cycle")
			}
		}
		return got
	}
	if got := walk(); len(got) != 3 || got[0] != 7 || got[1] != 6 || got[2] != 5 {
		t.Fatalf("chain after three parks = %v, want [7 6 5]", got)
	}
	// Unlink the middle member; neighbours must relink in O(1).
	s.unpark(6)
	if got := walk(); len(got) != 2 || got[0] != 7 || got[1] != 5 {
		t.Fatalf("chain after unparking 6 = %v, want [7 5]", got)
	}
	if s.consOn[6] != -1 {
		t.Error("unparked slot still registered on a producer")
	}
	if s.consPrev[5] != 7 || s.consNext[7] != 5 {
		t.Error("neighbour links not repaired after middle unlink")
	}
	s.unpark(6) // double unpark must be a no-op
	if got := walk(); len(got) != 2 {
		t.Fatalf("double unpark disturbed the chain: %v", got)
	}
	// Unlink the head; the list head must advance.
	s.unpark(7)
	if got := walk(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("chain after unparking head = %v, want [5]", got)
	}
	// Re-park one and wake: every remaining member becomes ready, the
	// list empties, and the unparked members stay asleep.
	s.parkOn(6, prod)
	s.wakeConsumers(prod)
	if s.consHead[prod] != -1 {
		t.Error("consumer list not emptied by wakeConsumers")
	}
	for _, c := range []int32{5, 6} {
		if !s.readyAt(int(c)) || s.consOn[c] != -1 {
			t.Errorf("slot %d not woken cleanly (ready=%v, consOn=%d)", c, s.readyAt(int(c)), s.consOn[c])
		}
	}
	if s.readyAt(7) {
		t.Error("slot 7 was unparked, not woken: its bit must stay clear")
	}
}

func TestWakeIterAgeOrder(t *testing.T) {
	cases := []struct {
		name    string
		head    int
		count   int
		set     []int // slots to mark ready
		exclude []int // marked slots outside the window
		want    []int
	}{
		{
			name: "linear window across word boundaries",
			head: 10, count: 100,
			set:     []int{109, 64, 10, 100, 63},
			exclude: []int{9, 110, 200},
			want:    []int{10, 63, 64, 100, 109},
		},
		{
			name: "wrapped window yields tail segment then head segment",
			head: 200, count: 120, // occupies [200,256) then [0,64)
			set:     []int{63, 5, 255, 0, 200},
			exclude: []int{199, 64, 100},
			want:    []int{200, 255, 0, 5, 63},
		},
		{
			name: "empty bitmap",
			head: 0, count: 256,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := wakeupSim(nil)
			s.headIdx, s.count = tc.head, tc.count
			for _, idx := range append(append([]int{}, tc.set...), tc.exclude...) {
				s.setReady(idx)
			}
			var it wakeIter
			s.newWakeIter(&it)
			var got []int
			for idx := it.nextSlot(); idx >= 0; idx = it.nextSlot() {
				got = append(got, idx)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("yielded %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("yielded %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestInvariantSweepCatchesLostWakeup corrupts the scheduler's state
// mid-run — clearing the ready bit of a live waiting instruction without
// parking it, so nothing will ever wake it — and requires the invariant
// sweep to fail the run with a *soundness.SoundnessError. This is the test
// of the instrument itself: the sweep-based wakeup tests are only
// convincing if a lost wakeup provably cannot slip through.
func TestInvariantSweepCatchesLostWakeup(t *testing.T) {
	script := []isa.Inst{
		{Op: isa.OpIDiv, Dest: 8, Src1: 1, Src2: 2},
		{Op: isa.OpIAlu, Dest: 9, Src1: 8, Src2: 2},
		{Op: isa.OpIAlu, Dest: 10, Src1: 9, Src2: 2},
		nop(11), nop(12), nop(13),
	}
	s := wakeupSim(script, WithInvariantChecking(1))
	// Step until the window holds a ready waiting instruction, then hide
	// the oldest one from the scheduler.
	planted := false
	for step := 0; step < 200 && !planted; step++ {
		s.step()
		for k := 0; k < s.count; k++ {
			idx := (s.headIdx + k) % len(s.robHot)
			if s.robHot[idx].state == stWaiting && s.readyAt(idx) {
				s.clearReady(idx)
				planted = true
				break
			}
		}
	}
	if !planted {
		t.Fatal("no ready waiting instruction appeared to corrupt")
	}
	_, err := s.Run(2000)
	var se *soundness.SoundnessError
	if !errors.As(err, &se) {
		t.Fatalf("planted lost wakeup not detected: err = %v", err)
	}
	if se.Kind != soundness.KindInvariant || !strings.Contains(se.Got, "neither ready nor parked") {
		t.Errorf("lost wakeup reported as %v: %s", se.Kind, se.Got)
	}
	// A condemned sim must stay condemned.
	if _, err := s.Run(100); err == nil {
		t.Error("poisoned sim ran again cleanly")
	}
}

// TestInvariantSweepCatchesStoreSideDrift plants, mid-run, a dropped
// data-wait mark and, separately, a stale SQ filter count, and requires
// the invariant sweep to fail the run with a *soundness.SoundnessError:
// the every-cycle sweeps prove the store side's derived state exact only
// if drift in it cannot slip through. The dropped mark leaves a store that
// nothing will ever walk to; the stale count, one too low, would hide the
// store from a load that must forward from it.
func TestInvariantSweepCatchesStoreSideDrift(t *testing.T) {
	script := []isa.Inst{
		{Op: isa.OpIDiv, Dest: 8, Src1: 1, Src2: 2},
		// The address is ready at once, the data waits on the divide.
		{Op: isa.OpStore, Dest: isa.RegNone, Src1: 1, Src2: 8, Addr: 0x1000_0100, Size: 8},
		{Op: isa.OpLoad, Dest: 9, Src1: 2, Src2: isa.RegNone, Addr: 0x1000_0104, Size: 4},
		nop(11), nop(12), nop(13),
	}
	cases := []struct {
		name  string
		plant func(s *Sim) bool
		want  string
	}{
		{"dropped mark", func(s *Sim) bool {
			if s.dwPending {
				return false
			}
			for _, ev := range s.dataWait {
				if p := s.hotOf(ev.age).src2Idx; p >= 0 && s.dwMark[p] {
					s.dwMark[p] = false
					return true
				}
			}
			return false
		}, "lost wakeup"},
		{"stale bucket", func(s *Sim) bool {
			for i := range s.sq {
				if st := &s.sq[i]; st.addrResolved {
					s.sqIdx.count(st.addr, st.size, -1)
					return true
				}
			}
			return false
		}, "SQ filter bucket"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := wakeupSim(append([]isa.Inst(nil), script...), WithInvariantChecking(1))
			planted := false
			for step := 0; step < 200 && !planted; step++ {
				s.step()
				planted = tc.plant(s)
			}
			if !planted {
				t.Fatal("the state to corrupt never appeared")
			}
			_, err := s.Run(2000)
			var se *soundness.SoundnessError
			if !errors.As(err, &se) {
				t.Fatalf("planted %s not detected: err = %v", tc.name, err)
			}
			if se.Kind != soundness.KindInvariant || !strings.Contains(se.Got, tc.want) {
				t.Errorf("planted %s reported as %v: %s", tc.name, se.Kind, se.Got)
			}
		})
	}
}

// TestEventWakeupInvariantSweep runs the replay-heavy violation script
// with an every-cycle invariant sweep: the wakeup bitmap and consumer
// lists must stay exact through squashes and replays.
func TestEventWakeupInvariantSweep(t *testing.T) {
	s := wakeupSim(violationScript(), WithInvariantChecking(1))
	if _, err := s.Run(2000); err != nil {
		t.Fatalf("run with invariant sweeps failed: %v", err)
	}
}
