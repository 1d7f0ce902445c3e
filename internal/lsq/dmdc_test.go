package lsq

import (
	"testing"

	"dmdc/internal/energy"
	"dmdc/internal/stats"
)

func testDMDCConfig() DMDCConfig {
	cfg := DefaultDMDCConfig(2048, 256)
	cfg.Coherence = false
	return cfg
}

// driveStore resolves and commits a store through the policy.
func resolveStore(d *DMDC, op *MemOp, cycle uint64) *Replay {
	op.ResolveCycle = cycle
	return d.StoreResolve(op)
}

func TestDMDCSafeStoreSkipsChecking(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	// Store younger than all issued loads: safe, no window.
	ld := newLoad(5, 0x100, 8)
	issueLoad(d, ld, 2)
	st := newStore(9, 0x200, 8)
	if r := resolveStore(d, st, 4); r != nil {
		t.Fatal("DMDC must not replay at resolve")
	}
	if st.Unsafe {
		t.Error("younger store marked unsafe")
	}
	d.StoreCommit(st)
	if d.checking {
		t.Error("safe store opened a checking window")
	}
}

func TestDMDCDetectsViolationAtCommit(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	// Younger load issues early to 0x100 (cycle 5); older store to the
	// same address resolves later (cycle 9): a genuine premature load.
	ld := newLoad(10, 0x100, 8)
	issueLoad(d, ld, 5)
	st := newStore(3, 0x100, 8)
	if r := resolveStore(d, st, 9); r != nil {
		t.Fatal("DMDC replayed at resolve")
	}
	if !st.Unsafe {
		t.Fatal("store not classified unsafe")
	}
	d.StoreCommit(st)
	if !d.checking {
		t.Fatal("unsafe store commit did not open checking window")
	}
	d.InstCommit(10)
	r := d.LoadCommit(ld)
	if r == nil {
		t.Fatal("violation not detected at load commit")
	}
	if r.Cause != CauseTrue {
		t.Errorf("cause = %v, want true_violation", r.Cause)
	}
	if r.FromAge != 10 {
		t.Errorf("replay from %d, want 10", r.FromAge)
	}
	if d.checking {
		t.Error("replay should close the checking window")
	}
}

func TestDMDCReplayClearsTable(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	ld := newLoad(10, 0x100, 8)
	issueLoad(d, ld, 5)
	st := newStore(3, 0x100, 8)
	resolveStore(d, st, 9)
	d.StoreCommit(st)
	d.InstCommit(10)
	if r := d.LoadCommit(ld); r == nil {
		t.Fatal("no replay")
	}
	// The refetched load commits again later with a fresh age; the table
	// must be clean or it would replay forever.
	ld2 := newLoad(50, 0x100, 8)
	issueLoad(d, ld2, 20)
	d.InstCommit(50)
	if r := d.LoadCommit(ld2); r != nil {
		t.Error("stale table entry caused an endless replay")
	}
}

func TestDMDCWindowTermination(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	ld := newLoad(10, 0x200, 8) // different address: no violation
	issueLoad(d, ld, 5)
	st := newStore(3, 0x100, 8)
	resolveStore(d, st, 9)
	if st.EndAge != 10 {
		t.Fatalf("window boundary = %d, want 10 (youngest issued load)", st.EndAge)
	}
	d.StoreCommit(st)
	d.InstCommit(10)
	if r := d.LoadCommit(ld); r != nil {
		t.Fatal("false replay on disjoint quad words")
	}
	if !d.checking {
		t.Fatal("window closed too early")
	}
	// First instruction past the end-check age terminates the window.
	d.InstCommit(11)
	if d.checking {
		t.Error("window not terminated after end-check age passed")
	}
	s := stats.NewSet()
	d.Report(s)
	if s.Get("windows") != 1 || s.Get("single_store_windows") != 1 {
		t.Errorf("window accounting wrong: windows=%v single=%v",
			s.Get("windows"), s.Get("single_store_windows"))
	}
}

func TestDMDCSafeLoadBypass(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	// Two loads to the same hash entry as the store; one safe, one not.
	safe := newLoad(10, 0x100, 8)
	safe.SafeAtIssue = true
	issueLoad(d, safe, 5)
	st := newStore(3, 0x100, 8)
	resolveStore(d, st, 9)
	d.StoreCommit(st)
	d.InstCommit(10)
	if r := d.LoadCommit(safe); r != nil {
		t.Error("safe load was replayed despite bypass")
	}
	s := stats.NewSet()
	d.Report(s)
	if s.Get("safe_load_bypass") != 1 {
		t.Error("safe-load bypass not counted")
	}
}

func TestDMDCSafeLoadDisabled(t *testing.T) {
	cfg := testDMDCConfig()
	cfg.SafeLoads = false
	d := Must(NewDMDC(cfg, new(energy.Model)))
	safe := newLoad(10, 0x100, 8)
	safe.SafeAtIssue = true
	issueLoad(d, safe, 5)
	st := newStore(3, 0x100, 8)
	resolveStore(d, st, 9)
	d.StoreCommit(st)
	d.InstCommit(10)
	if r := d.LoadCommit(safe); r == nil {
		t.Error("with bypass disabled, the aliasing safe load must replay")
	}
}

func TestDMDCHashConflictFalseReplay(t *testing.T) {
	cfg := testDMDCConfig()
	cfg.TableSize = 2 // tiny table: everything collides
	d := Must(NewDMDC(cfg, new(energy.Model)))
	ld := newLoad(10, 0x108, 8) // different quad word from the store
	issueLoad(d, ld, 5)
	st := newStore(3, 0x100, 8)
	resolveStore(d, st, 2) // store resolved BEFORE the load issued
	d.StoreCommit(st)
	d.InstCommit(10)
	r := d.LoadCommit(ld)
	if d.hash.index(0x108) != d.hash.index(0x100) {
		t.Skip("addresses did not collide in the tiny table")
	}
	if r == nil {
		t.Fatal("colliding load did not replay")
	}
	if r.Cause != CauseFalseHashX {
		t.Errorf("cause = %v, want false_hash_x", r.Cause)
	}
}

func TestDMDCBitmapAvoidsNarrowConflicts(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	// Store writes bytes 0-3 of the quad word, load reads bytes 4-7: same
	// table entry, disjoint bitmaps, no replay.
	ld := newLoad(10, 0x104, 4)
	issueLoad(d, ld, 5)
	st := newStore(3, 0x100, 4)
	resolveStore(d, st, 9)
	d.StoreCommit(st)
	d.InstCommit(10)
	if r := d.LoadCommit(ld); r != nil {
		t.Error("disjoint sub-quad-word accesses caused a replay")
	}
}

func TestDMDCTimingFalseReplay(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	// Load issued AFTER the store resolved (no real violation) but lands
	// in the window and overlaps the address: timing-approximation false
	// replay, category X.
	early := newLoad(8, 0x300, 8) // makes the store unsafe
	issueLoad(d, early, 4)
	st := newStore(3, 0x100, 8)
	resolveStore(d, st, 6)
	ld := newLoad(7, 0x100, 8) // issued at cycle 9, after resolve
	issueLoad(d, ld, 9)
	d.StoreCommit(st)
	d.InstCommit(7)
	r := d.LoadCommit(ld)
	if r == nil {
		t.Fatal("aliasing load in window did not replay")
	}
	if r.Cause != CauseFalseAddrX {
		t.Errorf("cause = %v, want false_addr_x", r.Cause)
	}
}

func TestDMDCMergedWindowYCategory(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	// Store A's window ends at age 8; store B's window extends to age 20.
	// A load at age 15 overlapping store A's address is only checked
	// because the windows merged: category Y.
	l1 := newLoad(8, 0x100, 8)
	issueLoad(d, l1, 4)
	stA := newStore(3, 0x200, 8)
	resolveStore(d, stA, 6) // boundary 8
	l2 := newLoad(20, 0x300, 8)
	issueLoad(d, l2, 7)
	stB := newStore(5, 0x400, 8)
	resolveStore(d, stB, 9) // boundary 20 (global end-check pushed to 20)
	d.StoreCommit(stA)
	d.StoreCommit(stB)
	// A load at age 15, issued after stA resolved, overlapping stA.
	ld := newLoad(15, 0x200, 8)
	issueLoad(d, ld, 12)
	d.InstCommit(15)
	r := d.LoadCommit(ld)
	if r == nil {
		t.Fatal("no replay")
	}
	if r.Cause != CauseFalseAddrY {
		t.Errorf("cause = %v, want false_addr_y (merged windows)", r.Cause)
	}
}

func TestDMDCLocalWindowsSmaller(t *testing.T) {
	// In local mode, stA's commit publishes only its own boundary (8), so
	// the load at age 15 is never checked if stB has not committed.
	cfg := testDMDCConfig()
	cfg.Local = true
	d := Must(NewDMDC(cfg, new(energy.Model)))
	l1 := newLoad(8, 0x100, 8)
	issueLoad(d, l1, 4)
	stA := newStore(3, 0x200, 8)
	resolveStore(d, stA, 6)
	l2 := newLoad(20, 0x300, 8)
	issueLoad(d, l2, 7)
	stB := newStore(5, 0x400, 8)
	resolveStore(d, stB, 9)
	d.StoreCommit(stA) // local: end-check = 8 only
	ld := newLoad(15, 0x200, 8)
	issueLoad(d, ld, 12)
	d.InstCommit(15) // age 15 > end-check 8: window closes first
	if d.checking {
		t.Fatal("local window did not close at its own boundary")
	}
	if r := d.LoadCommit(ld); r != nil {
		t.Error("local DMDC checked a load beyond the store's own window")
	}
}

func TestDMDCGlobalEndCheckPushedAtResolve(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	l1 := newLoad(8, 0x100, 8)
	issueLoad(d, l1, 4)
	st := newStore(3, 0x100, 8)
	resolveStore(d, st, 6)
	if d.endCheck != 8 {
		t.Errorf("global end-check = %d, want 8 after resolve", d.endCheck)
	}
}

func TestDMDCCheckingCycles(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	d.Tick()
	l1 := newLoad(8, 0x100, 8)
	issueLoad(d, l1, 4)
	st := newStore(3, 0x100, 8)
	resolveStore(d, st, 6)
	d.StoreCommit(st)
	d.Tick()
	d.Tick()
	s := stats.NewSet()
	d.Report(s)
	if s.Get("checking_cycles") != 2 {
		t.Errorf("checking cycles = %v, want 2", s.Get("checking_cycles"))
	}
	if s.Get("policy_cycles") != 3 {
		t.Errorf("total cycles = %v, want 3", s.Get("policy_cycles"))
	}
}

func TestDMDCQueueVariantExactAddresses(t *testing.T) {
	cfg := testDMDCConfig()
	cfg.TableSize = 0
	cfg.QueueSize = 16
	d := Must(NewDMDC(cfg, new(energy.Model)))
	// A load in the same YLA bank (8 banks × quad words: 0x140 aliases
	// 0x100) makes the store unsafe, but its exact address differs: the
	// queue must NOT replay it.
	ld := newLoad(10, 0x140, 8)
	issueLoad(d, ld, 5)
	st := newStore(3, 0x100, 8)
	resolveStore(d, st, 2)
	d.StoreCommit(st)
	d.InstCommit(10)
	if r := d.LoadCommit(ld); r != nil {
		t.Error("checking queue replayed on a non-overlapping address")
	}
	// Overlapping address: replay.
	ld2 := newLoad(10, 0x100, 8) // within window (endCheck is 10)
	issueLoad(d, ld2, 6)
	if r := d.LoadCommit(ld2); r == nil {
		t.Error("checking queue missed a real overlap")
	}
}

func TestDMDCQueueOverflowForcesReplay(t *testing.T) {
	cfg := testDMDCConfig()
	cfg.TableSize = 0
	cfg.QueueSize = 1
	d := Must(NewDMDC(cfg, new(energy.Model)))
	l1 := newLoad(30, 0x100, 8)
	issueLoad(d, l1, 5)
	stA := newStore(3, 0x200, 8)
	resolveStore(d, stA, 6)
	stB := newStore(4, 0x300, 8)
	resolveStore(d, stB, 7)
	d.StoreCommit(stA)
	d.StoreCommit(stB) // queue full: overflow
	ld := newLoad(20, 0x500, 8)
	issueLoad(d, ld, 9)
	d.InstCommit(20)
	r := d.LoadCommit(ld)
	if r == nil || r.Cause != CauseOverflow {
		t.Fatalf("expected overflow replay, got %+v", r)
	}
}

func TestDMDCInvalidateWriteSerialization(t *testing.T) {
	cfg := testDMDCConfig()
	cfg.Coherence = true
	cfg.LineYLARegs = 8
	d := Must(NewDMDC(cfg, new(energy.Model)))
	// Load i (younger, age 12) issues first, getting old data.
	ldI := newLoad(12, 0x140, 8)
	issueLoad(d, ldI, 5)
	// External invalidation to that line arrives.
	d.Invalidate(0x140)
	if !d.checking {
		t.Fatal("invalidation did not open a checking window")
	}
	// Load j (older, age 10) issues after the invalidation: first
	// same-location load promotes INV→WRT, no replay.
	ldJ := newLoad(10, 0x140, 8)
	issueLoad(d, ldJ, 8)
	d.InstCommit(10)
	if r := d.LoadCommit(ldJ); r != nil {
		t.Fatal("first load after invalidation must not replay")
	}
	// The second same-location load replays (write serialization).
	d.InstCommit(12)
	r := d.LoadCommit(ldI)
	if r == nil {
		t.Fatal("second load after invalidation should replay")
	}
	if r.Cause != CauseInvalidation {
		t.Errorf("cause = %v, want invalidation", r.Cause)
	}
}

func TestDMDCInvalidateNoLoadsNoWindow(t *testing.T) {
	cfg := testDMDCConfig()
	cfg.Coherence = true
	d := Must(NewDMDC(cfg, new(energy.Model)))
	d.Invalidate(0x9000)
	if d.checking {
		t.Error("invalidation with no issued loads opened a window")
	}
}

func TestDMDCInvalidateIgnoredWithoutCoherence(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	d.Invalidate(0x140)
	if d.checking {
		t.Error("coherence-disabled DMDC reacted to invalidation")
	}
}

func TestDMDCRecoverClampsYLA(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	wp := newLoad(100, 0x100, 8)
	wp.WrongPath = true
	issueLoad(d, wp, 5)
	d.Squash(50)
	d.Recover(50)
	st := newStore(60, 0x100, 8)
	resolveStore(d, st, 8)
	if st.Unsafe {
		t.Error("store after clamp should be safe (corrupting load squashed)")
	}
}

func TestDMDCWindowStats(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	l1 := newLoad(10, 0x100, 8)
	issueLoad(d, l1, 4)
	st := newStore(3, 0x200, 8)
	resolveStore(d, st, 6)
	d.StoreCommit(st)
	// Commit ages 4..10 (7 instructions), one load among them.
	for age := uint64(4); age <= 10; age++ {
		d.InstCommit(age)
		if age == 10 {
			d.LoadCommit(l1)
		}
	}
	d.InstCommit(11) // closes window
	s := stats.NewSet()
	d.Report(s)
	if s.Get("windows") != 1 {
		t.Fatalf("windows = %v", s.Get("windows"))
	}
	if got := s.Get("window_insts_sum"); got != 7 {
		t.Errorf("window insts = %v, want 7", got)
	}
	if got := s.Get("window_loads_sum"); got != 1 {
		t.Errorf("window loads = %v, want 1", got)
	}
}

func TestDMDCLoadCapacity(t *testing.T) {
	d := Must(NewDMDC(testDMDCConfig(), new(energy.Model)))
	if d.LoadCapacity() != 256 {
		t.Errorf("capacity = %d, want 256", d.LoadCapacity())
	}
}

func TestDMDCNames(t *testing.T) {
	if Must(NewDMDC(testDMDCConfig(), new(energy.Model))).Name() != "dmdc-global-t2048" {
		t.Error("global name wrong")
	}
	cfg := testDMDCConfig()
	cfg.Local = true
	if Must(NewDMDC(cfg, new(energy.Model))).Name() != "dmdc-local-t2048" {
		t.Error("local name wrong")
	}
	cfg.QueueSize = 16
	if Must(NewDMDC(cfg, new(energy.Model))).Name() != "dmdc-local-q16" {
		t.Error("queue name wrong")
	}
}

func TestDMDCConfigValidate(t *testing.T) {
	good := testDMDCConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*DMDCConfig){
		func(c *DMDCConfig) { c.TableSize = 1000 },
		func(c *DMDCConfig) { c.TableSize = 0 },
		func(c *DMDCConfig) { c.YLARegs = 3 },
		func(c *DMDCConfig) { c.YLARegs = 0 },
		func(c *DMDCConfig) { c.LoadCap = 0 },
		func(c *DMDCConfig) { c.QueueSize = -1 },
		func(c *DMDCConfig) { c.QueueSize = maxWindowStores }, // the queue must be a strict prefix of the window record
		func(c *DMDCConfig) { c.Coherence = true; c.LineYLARegs = 5 },
	}
	for i, mut := range bad {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDMDCEnergyMuchCheaperThanCAM(t *testing.T) {
	// Run the same event sequence through both policies and compare LQ
	// functionality energy; this is the paper's core claim (≈95% cheaper).
	run := func(p Policy, em *energy.Model) float64 {
		for i := 0; i < 1000; i++ {
			age := uint64(i*3 + 1)
			ld := newLoad(age, uint64(0x1000+i*8), 8)
			issueLoad(p, ld, age)
			st := newStore(age+1, uint64(0x8000+i*8), 8)
			st.ResolveCycle = age + 1
			p.StoreResolve(st)
			p.StoreCommit(st)
			p.InstCommit(age)
			p.LoadCommit(ld)
		}
		return em.Snapshot().LQEnergy()
	}
	emCAM := energy.NewModel(0)
	camE := run(Must(NewCAM(CAMConfig{LQSize: 96}, emCAM)), emCAM)
	emD := energy.NewModel(0)
	dmdcE := run(Must(NewDMDC(testDMDCConfig(), emD)), emD)
	if camE <= 0 || dmdcE <= 0 {
		t.Fatalf("energies not positive: cam=%v dmdc=%v", camE, dmdcE)
	}
	savings := energy.Savings(camE, dmdcE)
	if savings < 0.80 {
		t.Errorf("DMDC LQ energy savings = %.2f, expected ≥ 0.80 (paper: ~0.95)", savings)
	}
}
