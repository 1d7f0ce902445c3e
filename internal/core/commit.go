package core

import (
	"fmt"

	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/soundness"
)

// commitStage retires completed instructions in program order, up to the
// commit width. DMDC's delayed dependence check runs here: a committing
// load may demand a replay, which squashes from that load (inclusive) and
// refetches it.
func (s *Sim) commitStage() {
	for n := 0; n < s.cfg.CommitWidth && s.count > 0; n++ {
		idx := s.headIdx
		h := &s.robHot[idx]
		if h.state != stCompleted {
			return
		}
		d := &s.robData[idx]
		if h.wrongPath() {
			// A wrong-path instruction can never reach the ROB head: the
			// mispredicted branch ahead of it squashes at resolve, and
			// branches resolve before they would commit.
			s.simErr = &soundness.SoundnessError{
				Kind:   soundness.KindWrongPathCommit,
				Age:    h.age,
				PC:     d.inst.PC,
				Seq:    d.inst.Seq,
				Cycle:  s.cycle,
				Commit: s.committed,
				Got:    "wrong-path instruction at the ROB head: " + d.inst.String(),
				Want:   "only correct-path instructions reach commit",
				Events: s.ring.Snapshot(),
			}
			return
		}
		age := h.age
		s.polInstCommit(age)
		op := h.op
		switch {
		case op.IsLoad():
			if s.faults.SpuriousEvery > 0 {
				s.loadCommitAttempts++
				if s.loadCommitAttempts%s.faults.SpuriousEvery == 0 {
					// Injected fault: hit the load with a spurious replay at
					// its commit attempt, exercising squash/refetch/re-check.
					s.faultsInjected++
					s.traceMark("FLT", fmt.Sprintf("spurious replay of load age=%d", age))
					s.replay(&lsq.Replay{FromAge: age, Cause: lsq.CauseSpurious})
					return
				}
			}
			if r := s.polLoadCommit(&s.memOps[idx]); r != nil {
				// Delayed check fired: the load must re-execute. Squash
				// from the load itself and refetch; it does not commit.
				s.replay(r)
				return
			}
			s.inflightLoads--
		case op.IsStore():
			// The store drains to the cache at commit.
			s.em.Add(energy.CompL1D, s.costL1D)
			if lat := s.mem.L1D.Access(d.inst.Addr, true); lat > s.cfg.Memory.L1D.Latency {
				s.em.Add(energy.CompL2, s.costL2)
			}
			mem := &s.memOps[idx]
			s.pol.StoreCommit(mem)
			for _, m := range s.monitors {
				m.StoreCommit(mem)
			}
			s.popSQ()
		}
		if s.oracle != nil {
			if err := s.oracle.Commit(d.inst, s.memAt(idx), age, s.cycle); err != nil {
				s.simErr = err
				return
			}
		}
		// Release the physical register and retire the producer mapping.
		if h.flags&fHasDest != 0 {
			if isa.IsFPReg(d.inst.Dest) {
				s.freeFP++
			} else {
				s.freeInt++
			}
			if s.regProducer[d.inst.Dest] == age {
				s.regProducer[d.inst.Dest] = 0
			}
		}
		// The slot's MemOp arena entry needs no release: it stays in
		// place, past every commit-side hook, until a later insert
		// overwrites it.
		if s.tracing {
			s.traceEvent("CM", age, &d.inst, "")
		}
		s.em.Add(energy.CompROB, s.costROB)
		if s.commitHook != nil {
			s.commitHook(d.inst)
		}
		s.committed++
		s.lastCommitCycle = s.cycle
		if s.replayPending && age >= s.replayUntilAge {
			s.replayPending = false
		}
		s.headIdx++
		if s.headIdx == len(s.robHot) {
			s.headIdx = 0
		}
		s.headAge++
		s.count--
	}
}

// popSQ drops the oldest store, the one committing (stores commit in age
// order), from the store queue and keeps the SQ index current.
func (s *Sim) popSQ() {
	s.sqUncount(s.sq[0])
	s.sq = s.sq[:copy(s.sq, s.sq[1:])]
	if x := s.sqIdx; x.unresolved > 0 {
		x.unresolved--
	} else {
		s.sqAdvance()
	}
}

// truncateSQ drops the stores of age from and younger (an age-ordered
// suffix) and keeps the SQ index current. Squash calls it before any
// dispatch reuses the squashed slots, whose hot state and MemOps it reads.
func (s *Sim) truncateSQ(from uint64) {
	n := s.sqPos(from)
	for _, idx := range s.sq[n:] {
		s.sqUncount(idx)
	}
	s.sq = s.sq[:n]
	s.sqIdx.unresolved = min(s.sqIdx.unresolved, n)
}

// replay performs a memory-order replay: all instructions from the replay
// point (inclusive) are squashed, correct-path ones are saved for refetch,
// and the front end restarts after the recovery penalty.
//
// Commit-time replays always name the load at the ROB head, so nothing
// older than the replay point can be mispredicted-and-unresolved. But
// resolve-time replays (CAM, AgeTable) can fire on a wrong-path store and
// name a replay point past a still-unresolved mispredicted branch. Every
// instruction from that point on is wrong-path; squashing is fine, but the
// front end must keep fetching the wrong path — resuming the correct-path
// generator here would burn correct-path instructions that branch recovery
// later discards, silently skipping them from the committed stream.
func (s *Sim) replay(r *lsq.Replay) {
	s.replayCounts[r.Cause]++
	if s.tel != nil {
		// Stall attribution: the squash-to-recommit window belongs to the
		// replay. Cleared when the replay point commits again (or, for a
		// wrong-path-only replay, at branch recovery — the point never
		// recommits).
		s.replayPending = true
		s.replayUntilAge = r.FromAge
	}
	if s.tracing {
		s.traceMark("RPL", fmt.Sprintf("replay from age=%d cause=%v", r.FromAge, r.Cause))
	}
	if s.unresolvedMispredictBefore(r.FromAge) {
		// Wrong-path-only replay: discard the squashed suffix (none of it
		// can be refetched from the correct-path stream) and leave the
		// wrong-path fetch state alone; the branch squashes it all anyway
		// when it resolves. The recovery penalty is still paid.
		s.replaysWrongPath++
		s.squashAfter(r.FromAge-1, false)
		s.pol.Recover(r.FromAge - 1)
		for _, m := range s.monitors {
			m.Recover(r.FromAge - 1)
		}
		s.fetchResume = s.cycle + uint64(s.cfg.MispredictPenalty)
		return
	}
	s.squashAfter(r.FromAge-1, true)
	s.pol.Recover(r.FromAge - 1)
	for _, m := range s.monitors {
		m.Recover(r.FromAge - 1)
	}
	// Any active wrong path belonged to a branch younger than the replay
	// point (the replayed instruction is on the correct path); it was
	// squashed with everything else.
	s.wpActive = false
	s.wpStream = nil
	s.fetchResume = s.cycle + uint64(s.cfg.MispredictPenalty)
}

// unresolvedMispredictBefore reports whether a correct-path mispredicted
// branch older than age is still unresolved in the ROB. When one exists,
// every in-flight instruction at age or younger is on its wrong path.
func (s *Sim) unresolvedMispredictBefore(age uint64) bool {
	if !s.wpActive {
		return false
	}
	idx := s.headIdx
	for k := 0; k < s.count; k++ {
		h := &s.robHot[idx]
		d := &s.robData[idx]
		if idx++; idx == len(s.robHot) {
			idx = 0
		}
		if h.age >= age {
			break // ROB is age-ordered; nothing older remains
		}
		if d.predicted && d.mispredicted && h.state != stCompleted {
			return true
		}
	}
	return false
}

// squashAfter removes every ROB entry younger than keepAge. When save is
// true, squashed correct-path instructions are pushed onto the replay
// queue for refetch (memory-order replay); branch recovery discards them
// (they are all wrong-path by construction). Ages of squashed entries are
// recycled — like ROB IDs in real hardware — which is why scheduled events
// carry an epoch tag.
func (s *Sim) squashAfter(keepAge uint64, save bool) {
	s.epoch++
	if s.count == 0 {
		s.flushFetchQ(save, s.squashScratch[:0])
		return
	}
	tailAge := s.headAge + uint64(s.count) - 1
	if keepAge >= tailAge {
		s.flushFetchQ(save, s.squashScratch[:0])
		return
	}
	from := keepAge + 1
	if from < s.headAge {
		from = s.headAge
	}
	// saved reuses the scratch buffer that ping-pongs with the replay
	// queue's backing array (see flushFetchQ): a big squash no longer
	// allocates a fresh slice to carry the refetch set.
	saved := s.squashScratch[:0]
	var firstBranchCp uint32
	var sawBranch bool
	idx := s.idxOf(from)
	for age := from; age <= tailAge; age++ {
		slot := idx
		h := &s.robHot[idx]
		d := &s.robData[idx]
		if idx++; idx == len(s.robHot) {
			idx = 0
		}
		// Wakeup teardown by age range: drop the slot's ready bit and
		// unlink it from the consumer list it is parked on (the producer
		// may survive the squash). The slot's own consumer list needs no
		// walk — every member is younger, hence also in this squash range,
		// and unlinks itself here.
		s.clearReady(slot)
		s.unpark(slot)
		s.dwMark[slot] = false // its waiting stores are younger: squashed too
		if save && !h.wrongPath() {
			saved = append(saved, d.inst)
		}
		if !sawBranch && d.predicted {
			firstBranchCp = d.histCp
			sawBranch = true
		}
		// Unwind side structures.
		if h.flags&fHasDest != 0 {
			if isa.IsFPReg(d.inst.Dest) {
				s.freeFP++
			} else {
				s.freeInt++
			}
		}
		if h.state == stWaiting {
			s.leaveIQ(h.op)
		}
		if h.op.IsLoad() {
			s.inflightLoads--
		}
	}
	s.squashScratch = saved
	s.count = int(from - s.headAge) // recycle ages so ROB ages stay contiguous
	s.truncateSQ(from)
	// Speculative-history repair: rewind to the checkpoint of the oldest
	// squashed correct-path branch (its prediction never happened now).
	if save && sawBranch {
		s.bp.RestoreHistory(firstBranchCp, false)
		// The restore appended a bogus outcome bit; acceptable noise — the
		// branch will re-predict when refetched.
	}
	// Purge squashed ages from the store data-wait list (ages are about to
	// be recycled, so liveness checks alone would not catch them), and
	// rebuild the rename map from the surviving entries.
	dw := s.dataWait[:0]
	for _, ev := range s.dataWait {
		if ev.age < from {
			dw = append(dw, ev)
		}
	}
	s.dataWait = dw
	s.rebuildProducers()
	if s.tracing {
		s.traceMark("SQH", fmt.Sprintf("squash from age=%d", from))
	}
	if s.oracle != nil {
		s.oracle.Squashed(from)
	}
	s.pol.Squash(from)
	for _, m := range s.monitors {
		m.Squash(from)
	}
	// The squashed slots' MemOp arena entries need no recycling: the
	// policy and monitors have dropped every reference, and the entries
	// stay in place until a later insert overwrites them.
	s.flushFetchQ(save, saved)
}

// flushFetchQ empties the fetch queue. When save is set, the squashed ROB
// instructions (savedROB) followed by the fetch queue's correct-path
// instructions are prepended to the replay queue, preserving program
// order: ROB < fetchQ < existing replayQ.
func (s *Sim) flushFetchQ(save bool, savedROB []isa.Inst) {
	if save {
		saved := savedROB
		for i := s.fqHead; i < len(s.fetchQ); i++ {
			if !s.fetchQMeta[i].wrongPath {
				saved = append(saved, s.fetchQ[i])
			}
		}
		if len(saved) > 0 {
			saved = append(saved, s.replayQ[s.rqHead:]...)
			// The scratch buffer becomes the live replay queue; the old
			// replay backing becomes the next squash's scratch. savedROB
			// always aliases squashScratch (or is nil), never replayQ, so
			// the append above never reads what it is overwriting.
			old := s.replayQ
			s.replayQ = saved
			s.squashScratch = old[:0]
			s.rqHead = 0
		}
	}
	s.fetchQ = s.fetchQ[:0]
	s.fetchQMeta = s.fetchQMeta[:0]
	s.fqHead = 0
}

// rebuildProducers reconstructs the architectural-register producer map
// from the surviving ROB contents after a squash.
func (s *Sim) rebuildProducers() {
	for i := range s.regProducer {
		s.regProducer[i] = 0
	}
	idx := s.headIdx
	for k := 0; k < s.count; k++ {
		h := &s.robHot[idx]
		d := &s.robData[idx]
		if idx++; idx == len(s.robHot) {
			idx = 0
		}
		if h.flags&fHasDest != 0 {
			s.regProducer[d.inst.Dest] = h.age
		}
	}
}
