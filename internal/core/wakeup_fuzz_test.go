package core

import (
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/soundness"
)

// decodeWakeupWorkload turns fuzz bytes into a scripted instruction
// sequence plus a clamped fault campaign. The first two bytes shape the
// faults; every following 3-byte chunk is one instruction. The encoding
// keeps every output valid: register numbers land in a small pool so
// dependence chains are dense, addresses land in an 8-quad-word pool so
// loads and stores alias constantly, and fault periods are clamped away
// from the livelocking SpuriousEvery=1 (MarkWPAge is excluded outright —
// it deliberately corrupts state, which is soundness's business, not a
// scheduler property).
func decodeWakeupWorkload(data []byte) ([]isa.Inst, soundness.FaultSpec) {
	var faults soundness.FaultSpec
	if len(data) > 0 && data[0]%4 != 0 {
		faults.SpuriousEvery = 3 + uint64(data[0]%8)
	}
	if len(data) > 1 && data[1]%4 != 0 {
		faults.StoreDelay = 1 + uint64(data[1]%8)
		faults.StoreDelayEvery = 1 + uint64(data[1]%4)
	}
	if len(data) > 2 {
		data = data[2:]
	} else {
		data = nil
	}
	var insts []isa.Inst
	for len(data) >= 3 && len(insts) < 96 {
		b0, b1, b2 := data[0], data[1], data[2]
		data = data[3:]
		dest := int16(8 + b1%8)
		src := int16(8 + b2%8)
		addr := 0x1000_0000 + uint64(b2%8)*8
		switch b0 % 8 {
		case 0, 1: // dependent ALU
			insts = append(insts, isa.Inst{Op: isa.OpIAlu, Dest: dest, Src1: src, Src2: 2})
		case 2: // load from the alias pool
			insts = append(insts, isa.Inst{Op: isa.OpLoad, Dest: dest, Src1: src, Src2: isa.RegNone, Addr: addr, Size: 8})
		case 3: // store to the alias pool, address off a live register
			insts = append(insts, isa.Inst{Op: isa.OpStore, Dest: isa.RegNone, Src1: src, Src2: 1, Addr: addr, Size: 8})
		case 4: // long-latency producer
			insts = append(insts, isa.Inst{Op: isa.OpIDiv, Dest: dest, Src1: src, Src2: 2})
		case 5: // FP pressure (FP registers are 32+)
			insts = append(insts, isa.Inst{Op: isa.OpFMul, Dest: int16(40 + b1%8), Src1: int16(40 + b2%8), Src2: 33})
		case 6: // branch, possibly mispredicted taken
			insts = append(insts, isa.Inst{Op: isa.OpBranch, Dest: isa.RegNone, Src1: src, Src2: isa.RegNone,
				Taken: b1&1 == 1, Target: 0x40_0100})
		case 7: // narrow store: partial-match rejections
			insts = append(insts, isa.Inst{Op: isa.OpStore, Dest: isa.RegNone, Src1: 1, Src2: src, Addr: addr, Size: 4})
		}
	}
	return insts, faults
}

// fuzzWatchdog is the fuzz runs' forward-progress budget: far above any
// legitimate commit gap of a 96-instruction script, far below the default,
// so a livelocking input fails in well under a second.
const fuzzWatchdog = 100_000

// FuzzWakeupInvariants feeds random scripted workloads — dense alias
// pools, late branches, long-latency chains, injected fault campaigns —
// through the scheduler with an every-cycle invariant sweep and a tight
// watchdog: any lost or stale wakeup, broken consumer list, or stall
// fails the input. This is the randomized arm of the wakeup checks; the
// scripted squash-point table is the directed arm.
func FuzzWakeupInvariants(f *testing.F) {
	// Squash during issue: a slow-resolving taken branch over a window of
	// aliasing memory traffic.
	f.Add([]byte{0, 0, 4, 0, 0, 6, 1, 0, 2, 1, 1, 3, 0, 2, 2, 2, 3, 0, 0, 4})
	// Replay storm: div -> store -> load triplets to the same quad word,
	// repeated across the alias pool.
	f.Add([]byte{0, 0, 4, 0, 0, 3, 0, 0, 2, 1, 0, 4, 0, 1, 3, 0, 1, 2, 2, 1, 4, 0, 2, 3, 0, 2, 2, 3, 2})
	// IQ-full stall: a serial divide chain starves issue while independent
	// loads and FP work pile into the queues.
	f.Add([]byte{0, 0, 4, 0, 0, 4, 0, 0, 4, 0, 0, 4, 0, 0, 2, 1, 1, 2, 2, 2, 5, 1, 2, 5, 2, 3, 2, 3, 4})
	// Fault campaign over the replay storm: spurious replays + store delays.
	f.Add([]byte{5, 5, 4, 0, 0, 3, 0, 0, 2, 1, 0, 4, 0, 1, 3, 0, 1, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		insts, faults := decodeWakeupWorkload(data)
		cfg := config.Config2()
		em := energy.NewModel(cfg.CoreSize())
		pol := lsq.Must(lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize}, em))
		opts := []Option{WithInvariantChecking(1), WithWatchdog(fuzzWatchdog)}
		if !faults.Zero() {
			opts = append(opts, WithFaults(faults))
		}
		s := MustSim(NewWithWorkload(cfg, newScripted(insts), pol, em, opts...))
		if _, err := s.Run(1200); err != nil {
			t.Fatalf("run failed: %v", err)
		}
	})
}
