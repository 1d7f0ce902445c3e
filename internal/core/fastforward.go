package core

import (
	"fmt"

	"dmdc/internal/isa"
	"dmdc/internal/lsq"
)

// A warm fast-forward is a two-stage pipeline (DESIGN.md §14). The
// generating stage runs on a helper goroutine and touches only the
// workload: it takes a free block from the Sim's ring, fills it with
// committed-path instructions and hands it on. The warming stage is the
// caller's goroutine and owns everything else: it warms the caches,
// predictor and policy from each block in order, then frees the block.
// A block carries ~1K instructions, so the handoff (two channel
// operations and, when a stage has waited, a goroutine wakeup) is paid
// once per thousand: 64-instruction blocks measured no faster than
// warming each batch as it was generated. Four blocks give the stages
// slack; with two, the generating stage kept waiting for the warming
// stage's wakeups.
const (
	ffBlock = 1024 // instructions per block
	ffRing  = 4    // blocks in the ring, filled, queued or being warmed
)

// FastForward advances the simulation n instructions functionally: the
// workload, and optionally the caches, branch predictor, and the policy's
// age filters, observe every instruction, but no detailed pipeline timing
// happens — the clock advances nominally at one instruction per cycle.
//
// With warm=false only the workload position advances (pure skip); with
// warm=true the long-lived microarchitectural state (I-cache, D-cache,
// branch predictor, YLA registers) absorbs each instruction so a detailed
// interval started from the resulting state begins with realistic
// history. Energy is not accounted during fast-forward: a sampled run's
// energy is meaningful only within measured intervals.
//
// A warm fast-forward generates on a helper goroutine while the caller
// warms, and returns only after the helper has exited; the resulting
// state is byte-identical to warming one instruction at a time. A panic
// in either stage stops the other and is re-raised on the caller's
// goroutine with its original value.
//
// FastForward requires an idle pipeline (it is meant for use between a
// construction or restore and a detailed interval) and the same gating as
// SaveCheckpoint, so a fast-forwarded simulation is always checkpointable.
// Like SaveCheckpoint it settles a streamed committed path first, and it
// generates on the live generator.
func (s *Sim) FastForward(n uint64, warm bool) error {
	if err := s.checkpointable(); err != nil {
		return err
	}
	if s.count != 0 || s.fetchQLen() != 0 || len(s.replayQ) != s.rqHead ||
		s.wpActive || s.inflightLoads != 0 || len(s.sq) != 0 {
		return fmt.Errorf("core: fast-forward requires an idle pipeline")
	}
	if n == 0 {
		return nil
	}
	s.stream.settle()
	wl := s.wl.(CheckpointableWorkload)
	var lastPC uint64
	if warm {
		lastPC = s.warmForward(wl, n)
	} else {
		var buf [64]isa.Inst
		for left := n; left > 0; {
			k := wl.NextBatch(buf[:min(left, uint64(len(buf)))])
			left -= uint64(k)
			lastPC = buf[k-1].PC
		}
	}
	s.headAge += n
	s.committed += n
	s.cycle += n
	s.lastCommitCycle = s.cycle
	s.lastGenPC = lastPC + 4
	return nil
}

// warmForward generates and warms n instructions as the two-stage
// pipeline and returns the last one's PC. The generating stage stops
// after exactly n instructions, so the workload ends where a serial loop
// leaves it.
func (s *Sim) warmForward(wl Batcher, n uint64) (lastPC uint64) {
	if s.ffRing == nil {
		s.ffRing = make([]isa.Inst, ffRing*ffBlock)
	}
	// free and full each have room for every block of the ring, so no
	// send on either blocks.
	free := make(chan []isa.Inst, ffRing)
	full := make(chan []isa.Inst, ffRing)
	for i := 0; i < ffRing; i++ {
		free <- s.ffRing[i*ffBlock : (i+1)*ffBlock : (i+1)*ffBlock]
	}
	var gen helper
	gen.start(func(stop <-chan struct{}) {
		defer close(full)
		for left := n; left > 0; {
			var blk []isa.Inst
			select {
			case blk = <-free:
			case <-stop:
				return
			}
			blk = blk[:min(left, ffBlock)]
			for i := 0; i < len(blk); {
				i += wl.NextBatch(blk[i:])
			}
			left -= uint64(len(blk))
			full <- blk
		}
	})
	// On every exit, a warming panic included, stop the generating stage
	// and wait for it; a generating panic, which closes full early, is
	// re-raised here.
	defer gen.join()

	warmer, _ := s.pol.(lsq.Warmer)
	age := s.headAge
	for blk := range full {
		s.warmBlock(blk, age, warmer)
		age += uint64(len(blk))
		lastPC = blk[len(blk)-1].PC
		free <- blk[:ffBlock]
	}
	return lastPC
}

// warmBlock lets the I-cache, D-cache, branch predictor and the policy's
// age filters absorb one block, whose first instruction has age age.
func (s *Sim) warmBlock(blk []isa.Inst, age uint64, warmer lsq.Warmer) {
	l1i, l1d, bp := s.mem.L1I, s.mem.L1D, s.bp
	for i := range blk {
		in := &blk[i]
		l1i.Access(in.PC, false)
		switch {
		case in.Op.IsBranch():
			cp := bp.HistoryCheckpoint()
			pred := bp.Predict(in.PC)
			bp.Update(in.PC, pred, in.Taken, in.Target)
			if pred.Taken != in.Taken {
				bp.RestoreHistory(cp, in.Taken)
			}
		case in.Op.IsLoad():
			l1d.Access(in.Addr, false)
			if warmer != nil {
				warmer.WarmLoad(in.Addr, age+uint64(i))
			}
		case in.Op.IsStore():
			l1d.Access(in.Addr, true)
		}
	}
}
