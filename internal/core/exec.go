package core

import (
	"fmt"

	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
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
	// match is the ROB slot of the youngest older store whose resolved
	// address overlaps the load, -1 if none; unresolved reports whether
	// any older store's address is unresolved.
	match, unresolved := -1, false
	// Store-side age filter: a load older than the oldest in-flight store
	// provably has nothing to forward from or wait on, so the associative
	// SQ search is skipped (Section 3, "Filtering for stores").
	if s.sqFilter && (len(s.sq) == 0 || h.age < s.robHot[s.sq[0]].age) {
		s.sqSearchFiltered++
		s.em.Add(energy.CompYLA, energy.RegisterOp(20))
	} else {
		// One associative SQ search per attempt (rejected retries pay again).
		s.sqSearches++
		s.em.Add(energy.CompSQ, s.costSQSearch)
		match, unresolved = s.sqSearch(h.age, mem.Addr, mem.Size)
	}
	if match >= 0 {
		if st := &s.memOps[match]; !isa.Contains(st.Addr, st.Size, mem.Addr, mem.Size) {
			// Partial match: the SQ cannot assemble the value; reject and
			// retry until the store drains.
			s.loadRejections++
			h.notBefore = s.cycle + 4
			return true
		}
		if s.robHot[match].flags&fDataReady == 0 {
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
	if match >= 0 {
		s.forwards++
		mem.FwdSeq = s.robData[match].inst.Seq
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

// issueStore resolves the store's address: the SQ index counts it, the
// policy runs its dependence check (the baseline may demand a replay), and
// the store completes once its data operand is also ready.
func (s *Sim) issueStore(idx int, h *hotEntry) {
	h.state = stIssued
	s.leaveIQ(h.op)
	s.sqResolve(idx)
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
		s.scheduleCompletion(h.age, 1)
	} else {
		// The producer is incomplete; its completion triggers the walk
		// that finds this store ready (completeStage).
		s.dwMark[h.src2Idx] = true
		s.dataWait = append(s.dataWait, wheelEv{age: h.age, epoch: h.epoch})
	}
}

// sqPos returns the number of SQ entries older than age, which is also
// the position of age's own entry if it has one. The SQ is age-ordered,
// so a binary search replaces a linear scan.
func (s *Sim) sqPos(age uint64) int {
	lo, hi := 0, len(s.sq)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.robHot[s.sq[mid]].age < age {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sqBuckets is the number of counters in the SQ index's granule filter.
const sqBuckets = 256

// sqIndex answers a load's store-queue search without walking the queue
// (DESIGN.md §13, "The store side"). counts[b] counts, over every
// address-resolved store in the SQ, the 8-byte granules it touches that
// hash to bucket b; an access of at most 8 bytes (isa.Inst.Validate)
// touches one granule or two, and a load can overlap a store only if they
// share one, so a load whose buckets all read zero overlaps no resolved
// store. unresolved is the SQ position of the oldest store whose address
// is unresolved, len(sq) when there is none. Both are derived from the
// SQ: no checkpoint encodes them, and restore rebuilds them.
type sqIndex struct {
	counts     [sqBuckets]uint16
	unresolved int
}

// sqBucket hashes granule g (Fibonacci hashing: the top byte of the
// product), so strided addresses spread over the buckets.
func sqBucket(g uint64) uint8 { return uint8((g * 0x9e3779b97f4a7c15) >> 56) }

// count adds d (+1 or -1) to the buckets of the granules that the store
// m's access touches.
func (x *sqIndex) count(m *lsq.MemOp, d int) {
	g0, g1 := m.Addr>>3, (m.Addr+uint64(m.Size)-1)>>3
	x.counts[sqBucket(g0)] += uint16(d)
	if g1 != g0 {
		x.counts[sqBucket(g1)] += uint16(d)
	}
}

// mayOverlap reports whether some resolved store could overlap the
// access [addr, addr+size). False is a proof; true may be a collision.
func (x *sqIndex) mayOverlap(addr uint64, size uint8) bool {
	g0, g1 := addr>>3, (addr+uint64(size)-1)>>3
	return x.counts[sqBucket(g0)] != 0 || (g1 != g0 && x.counts[sqBucket(g1)] != 0)
}

// sqSearch is a load's associative SQ search: it returns the ROB slot of
// the youngest store older than age whose resolved address overlaps
// [addr, addr+size), or -1, and whether any older store's address is
// still unresolved. The index answers the second question outright and
// most of the first; only when the filter cannot rule a match out does
// the search walk back from the youngest older store, stopping at the
// first overlap.
func (s *Sim) sqSearch(age, addr uint64, size uint8) (match int, unresolved bool) {
	if len(s.sq) == 0 {
		return -1, false
	}
	x := s.sqIdx
	if p := x.unresolved; p < len(s.sq) && s.robHot[s.sq[p]].age < age {
		unresolved = true
	}
	if !x.mayOverlap(addr, size) {
		return -1, unresolved
	}
	for i := s.sqPos(age) - 1; i >= 0; i-- {
		st := int(s.sq[i])
		if m := &s.memOps[st]; s.robHot[st].flags&fAddrResolved != 0 && isa.Overlap(addr, size, m.Addr, m.Size) {
			return st, unresolved
		}
	}
	return -1, unresolved
}

// sqResolve marks the store in ROB slot idx address-resolved and indexes
// it.
func (s *Sim) sqResolve(idx int) {
	s.robHot[idx].flags |= fAddrResolved
	x := s.sqIdx
	x.count(&s.memOps[idx], 1)
	if p := x.unresolved; p < len(s.sq) && int(s.sq[p]) == idx {
		s.sqAdvance()
	}
}

// sqUncount drops the store in ROB slot idx from the filter if it counts
// there, as it leaves the SQ.
func (s *Sim) sqUncount(idx int32) {
	if s.robHot[idx].flags&fAddrResolved != 0 {
		s.sqIdx.count(&s.memOps[idx], -1)
	}
}

// sqAdvance moves the oldest-unresolved position past resolved stores.
func (s *Sim) sqAdvance() {
	x := s.sqIdx
	for x.unresolved < len(s.sq) && s.robHot[s.sq[x.unresolved]].flags&fAddrResolved != 0 {
		x.unresolved++
	}
}

// sqIndexOf derives the SQ's index from scratch (restore and the
// invariant sweep).
func (s *Sim) sqIndexOf() sqIndex {
	x := sqIndex{unresolved: len(s.sq)}
	for i, idx := range s.sq {
		switch {
		case s.robHot[idx].flags&fAddrResolved != 0:
			x.count(&s.memOps[idx], 1)
		case x.unresolved == len(s.sq):
			x.unresolved = i
		}
	}
	return x
}

// completeStage retires execution events: instructions finishing this
// cycle become completed, mispredicted branches trigger recovery, and
// stores waiting on data are re-examined.
func (s *Sim) completeStage() {
	// Stores whose data operand may have become ready: only a marked
	// producer's completion, last cycle, can have readied one.
	if s.dwPending {
		s.dwPending = false
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
		if s.dwMark[idx] {
			s.dwMark[idx] = false
			s.dwPending = true
		}
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

// rebuildWaitMarks derives the producer marks from dataWait (restore)
// and has the next completeStage walk the list: the save may have fallen
// between a marked producer's completion and the walk it triggers.
func (s *Sim) rebuildWaitMarks() {
	clear(s.dwMark)
	for _, ev := range s.dataWait {
		if !s.live(ev.age) {
			continue
		}
		h := s.hotOf(ev.age)
		if p := h.src2Idx; p >= 0 && h.epoch == ev.epoch && !srcReady(&s.robHot[p], h.src2Prod) {
			s.dwMark[p] = true
		}
	}
	s.dwPending = len(s.dataWait) > 0
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
