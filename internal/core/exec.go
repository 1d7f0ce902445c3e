package core

import (
	"fmt"

	"dmdc/internal/energy"
	"dmdc/internal/isa"
)

// scheduleCompletion enqueues age on the event wheel lat cycles from now,
// tagged with the entry's epoch so a post-squash occupant of a recycled
// age cannot be completed by a stale event.
func (s *Sim) scheduleCompletion(age uint64, lat int) {
	if lat < 1 {
		lat = 1
	}
	if lat >= wheelSize {
		lat = wheelSize - 1
	}
	h := s.hotOf(age)
	h.compCycle = s.cycle + uint64(lat)
	slot := h.compCycle % wheelSize
	s.wheel[slot] = append(s.wheel[slot], wheelEv{age: age, epoch: h.epoch})
}

// beginExecution starts the instruction in ROB slot idx (h is its hot
// state). It returns true when the op must stay in the issue queue (a
// rejected load).
func (s *Sim) beginExecution(idx int, h *hotEntry) bool {
	op := h.op
	s.em.Add(energy.CompIQ, s.costIQ)
	s.em.Add(energy.CompRegfile, 2*s.costRegfile)
	switch {
	case op.IsLoad():
		return s.issueLoad(idx, h)
	case op.IsStore():
		s.issueStore(idx, h)
	default:
		s.em.Add(energy.CompALU, s.costALU)
		h.state = stIssued
		s.scheduleCompletion(h.age, op.Latency())
		s.leaveIQ(op)
	}
	return false
}

// leaveIQ frees an issue-queue slot of the op's cluster.
func (s *Sim) leaveIQ(op isa.Op) {
	if op.IsFP() {
		s.iqFP--
	} else {
		s.iqInt--
	}
}

// issueLoad executes a load: it searches the store queue for forwarding or
// rejection, then accesses the data cache. Returns true if the load was
// rejected and must retry.
func (s *Sim) issueLoad(idx int, h *hotEntry) bool {
	mem := &s.memOps[idx]
	var (
		match      *sqEntry // youngest older store with resolved overlapping address
		unresolved bool     // any older store with unresolved address
	)
	// Store-side age filter: a load older than the oldest in-flight store
	// provably has nothing to forward from or wait on, so the associative
	// SQ search is skipped (Section 3, "Filtering for stores").
	if s.sqFilter && (len(s.sq) == 0 || h.age < s.sq[0].age) {
		s.sqSearchFiltered++
		s.em.Add(energy.CompYLA, energy.RegisterOp(20))
	} else {
		// One associative SQ search per attempt (rejected retries pay again).
		s.sqSearches++
		s.em.Add(energy.CompSQ, s.costSQSearch)
		for i := range s.sq {
			st := &s.sq[i]
			if st.age >= h.age {
				break // SQ is age-ordered
			}
			if !st.addrResolved {
				unresolved = true
				continue
			}
			if isa.Overlap(mem.Addr, mem.Size, st.addr, st.size) {
				match = st // keep youngest (list is ascending)
			}
		}
	}
	if match != nil {
		if !isa.Contains(match.addr, match.size, mem.Addr, mem.Size) {
			// Partial match: the SQ cannot assemble the value; reject and
			// retry until the store drains.
			s.loadRejections++
			h.notBefore = s.cycle + 4
			return true
		}
		if !match.dataReady {
			// Address matches but the store's data is not ready: the SQ
			// rejects the load to retry later (POWER4-style, footnote 1).
			s.loadRejections++
			h.notBefore = s.cycle + 4
			return true
		}
	}
	// The load issues now.
	h.state = stIssued
	s.leaveIQ(h.op)
	mem.Issued = true
	mem.IssueCycle = s.cycle
	mem.SafeAtIssue = !unresolved
	mem.FwdSeq = 0
	var lat int
	if match != nil {
		s.forwards++
		mem.FwdSeq = match.seq
		lat = s.cfg.Memory.L1D.Latency // forwarding takes an L1-hit-like time
	} else {
		s.em.Add(energy.CompL1D, s.costL1D)
		lat = s.mem.L1D.Access(mem.Addr, false)
		if lat > s.cfg.Memory.L1D.Latency {
			s.em.Add(energy.CompL2, s.costL2)
		}
	}
	s.scheduleCompletion(h.age, lat)
	s.polLoadIssue(mem)
	for _, m := range s.monitors {
		m.LoadIssue(mem)
	}
	if s.oracle != nil {
		s.oracle.LoadIssued(h.age, s.cycle)
	}
	return false
}

// issueStore resolves the store's address: the SQ entry is updated, the
// policy runs its dependence check (the baseline may demand a replay), and
// the store completes once its data operand is also ready.
func (s *Sim) issueStore(idx int, h *hotEntry) {
	h.state = stIssued
	s.leaveIQ(h.op)
	h.flags |= fAddrResolved
	if st := s.sqFind(h.age); st != nil {
		st.addrResolved = true
	}
	s.em.Add(energy.CompSQ, s.costSQWrite)
	mem := &s.memOps[idx]
	mem.ResolveCycle = s.cycle
	for _, m := range s.monitors {
		m.StoreResolve(mem)
	}
	if r := s.polStoreResolve(mem); r != nil {
		s.replay(r)
		// The store itself is older than the replay point and survives.
	}
	if h.src2Idx < 0 || srcReady(&s.robHot[h.src2Idx], h.src2Prod) {
		h.src2Idx = -1
		h.flags |= fDataReady
		s.markStoreDataReady(h.age)
		s.scheduleCompletion(h.age, 1)
	} else {
		s.dataWait = append(s.dataWait, wheelEv{age: h.age, epoch: h.epoch})
	}
}

func (s *Sim) markStoreDataReady(age uint64) {
	if st := s.sqFind(age); st != nil {
		st.dataReady = true
	}
}

// sqFind returns the store-queue entry for age, or nil. The SQ is
// age-ordered, so a binary search replaces the linear scans that the store
// issue and data-ready paths otherwise pay per store.
func (s *Sim) sqFind(age uint64) *sqEntry {
	lo, hi := 0, len(s.sq)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.sq[mid].age < age {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.sq) && s.sq[lo].age == age {
		return &s.sq[lo]
	}
	return nil
}

// completeStage retires execution events: instructions finishing this
// cycle become completed, mispredicted branches trigger recovery, and
// stores waiting on data are re-examined.
func (s *Sim) completeStage() {
	// Stores whose data operand may have become ready.
	if len(s.dataWait) > 0 {
		out := s.dataWait[:0]
		for _, ev := range s.dataWait {
			if !s.live(ev.age) {
				continue
			}
			h := s.hotOf(ev.age)
			if h.epoch != ev.epoch || h.flags&fDataReady != 0 {
				continue
			}
			if h.src2Idx < 0 || srcReady(&s.robHot[h.src2Idx], h.src2Prod) {
				h.src2Idx = -1
				h.flags |= fDataReady
				s.markStoreDataReady(ev.age)
				s.scheduleCompletion(ev.age, 1)
				continue
			}
			out = append(out, ev)
		}
		s.dataWait = out
	}
	slot := s.cycle % wheelSize
	events := s.wheel[slot]
	// Reset length but keep capacity: this slot is not written again until
	// the wheel wraps (scheduleCompletion clamps latencies to [1, size-1]),
	// and releasing it instead made event scheduling ~30% of all allocations.
	s.wheel[slot] = events[:0]
	for _, ev := range events {
		if !s.live(ev.age) {
			continue // squashed while in flight
		}
		idx := s.idxOf(ev.age)
		h := &s.robHot[idx]
		if h.epoch != ev.epoch {
			continue // stale event for a recycled age
		}
		if h.state != stIssued {
			continue
		}
		if h.op.IsStore() && h.flags&(fAddrResolved|fDataReady) != fAddrResolved|fDataReady {
			continue // premature event (data arrived separately)
		}
		h.state = stCompleted
		// Broadcast-free wakeup: only the consumers parked on this entry
		// are marked ready. completeStage precedes issueStage, so they can
		// issue this very cycle.
		s.wakeConsumers(idx)
		if s.tracing {
			s.traceEvent("CP", h.age, &s.robData[idx].inst, "")
		}
		if h.flags&fHasDest != 0 {
			s.em.Add(energy.CompRegfile, s.costRegfile)
		}
		if h.op.IsBranch() {
			s.resolveBranch(h, &s.robData[idx])
		}
	}
}

// resolveBranch trains the predictor and, for mispredicted correct-path
// branches, performs recovery: squash younger instructions, restore the
// speculative history, clamp the YLA registers, and redirect fetch.
func (s *Sim) resolveBranch(h *hotEntry, d *robData) {
	if !d.predicted {
		return // wrong-path branch: no training, no recovery
	}
	s.bp.Update(d.inst.PC, d.pred, d.inst.Taken, d.inst.Target)
	if !d.mispredicted {
		return
	}
	s.mispredictRecoveries++
	if s.tracing {
		s.traceMark("REC", fmt.Sprintf("branch age=%d mispredicted, squashing younger", h.age))
	}
	s.squashAfter(h.age, false)
	s.bp.RestoreHistory(d.histCp, d.inst.Taken)
	s.pol.Recover(h.age)
	for _, m := range s.monitors {
		m.Recover(h.age)
	}
	s.wpActive = false
	s.wpStream = nil
	s.replayPending = false // a wrong-path replay point never recommits
	s.fetchResume = s.cycle + uint64(s.cfg.MispredictPenalty)
}
