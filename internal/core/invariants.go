package core

import (
	"fmt"
	"math/bits"
)

// CheckInvariants verifies the simulator's internal structural invariants.
// It exists for tests: run a simulation stepwise and call it periodically
// to catch bookkeeping drift (counter leaks, ordering violations) close to
// where it happens rather than as mysterious end-state corruption.
func (s *Sim) CheckInvariants() error {
	if s.count < 0 || s.count > len(s.robHot) {
		return fmt.Errorf("rob count %d out of range", s.count)
	}
	if len(s.robHot) != len(s.robData) || len(s.robHot) != len(s.memOps) {
		return fmt.Errorf("struct-of-arrays length mismatch: hot %d, data %d, memops %d",
			len(s.robHot), len(s.robData), len(s.memOps))
	}
	var iqInt, iqFP, loads, stores int
	prevAge := uint64(0)
	for k := 0; k < s.count; k++ {
		idx := (s.headIdx + k) % len(s.robHot)
		h := &s.robHot[idx]
		d := &s.robData[idx]
		wantAge := s.headAge + uint64(k)
		if h.age != wantAge {
			return fmt.Errorf("rob ages not contiguous: slot %d has age %d, want %d", k, h.age, wantAge)
		}
		if h.age <= prevAge && k > 0 {
			return fmt.Errorf("rob ages not increasing at slot %d", k)
		}
		prevAge = h.age
		if h.op != d.inst.Op {
			return fmt.Errorf("hot op desynced at slot %d: hot %v, inst %v", k, h.op, d.inst.Op)
		}
		if h.flags&fHasMem != 0 && s.memOps[idx].Age != h.age {
			return fmt.Errorf("memop arena desynced at slot %d: memop age %d, rob age %d",
				k, s.memOps[idx].Age, h.age)
		}
		if h.state == stWaiting {
			if h.op.IsFP() {
				iqFP++
			} else {
				iqInt++
			}
		}
		switch {
		case h.op.IsLoad():
			loads++
		case h.op.IsStore():
			stores++
		}
	}
	if iqInt != s.iqInt || iqFP != s.iqFP {
		return fmt.Errorf("issue-queue counters drifted: have int=%d fp=%d, rob says int=%d fp=%d",
			s.iqInt, s.iqFP, iqInt, iqFP)
	}
	if loads != s.inflightLoads {
		return fmt.Errorf("in-flight load counter drifted: have %d, rob says %d", s.inflightLoads, loads)
	}
	if stores != len(s.sq) {
		return fmt.Errorf("store queue drifted: %d entries, rob says %d stores", len(s.sq), stores)
	}
	for i := 1; i < len(s.sq); i++ {
		if s.sq[i].age <= s.sq[i-1].age {
			return fmt.Errorf("store queue not age-ordered at %d", i)
		}
	}
	for _, sq := range s.sq {
		if !s.live(sq.age) {
			return fmt.Errorf("store queue holds dead age %d", sq.age)
		}
		if !s.hotOf(sq.age).op.IsStore() {
			return fmt.Errorf("store queue entry %d maps to a non-store", sq.age)
		}
	}
	// Physical-register accounting: free + in-flight destinations = pool.
	var intDests, fpDests int
	for k := 0; k < s.count; k++ {
		idx := (s.headIdx + k) % len(s.robHot)
		if s.robHot[idx].flags&fHasDest != 0 {
			if s.robData[idx].inst.Dest >= 32 { // FP register file
				fpDests++
			} else {
				intDests++
			}
		}
	}
	if s.freeInt+intDests != s.cfg.IntRegs-32 {
		return fmt.Errorf("int register leak: free %d + inflight %d != pool %d",
			s.freeInt, intDests, s.cfg.IntRegs-32)
	}
	if s.freeFP+fpDests != s.cfg.FPRegs-32 {
		return fmt.Errorf("fp register leak: free %d + inflight %d != pool %d",
			s.freeFP, fpDests, s.cfg.FPRegs-32)
	}
	if s.fetchQLen() > s.fetchQCap() {
		return fmt.Errorf("fetch queue overflow: %d > %d", s.fetchQLen(), s.fetchQCap())
	}
	if len(s.fetchQ) != len(s.fetchQMeta) {
		return fmt.Errorf("fetch queue desynced: %d insts, %d metas", len(s.fetchQ), len(s.fetchQMeta))
	}
	if s.fqHead < 0 || s.fqHead > len(s.fetchQ) || s.rqHead < 0 || s.rqHead > len(s.replayQ) {
		return fmt.Errorf("queue head out of range: fetch %d/%d, replay %d/%d",
			s.fqHead, len(s.fetchQ), s.rqHead, len(s.replayQ))
	}
	// The rename map must point at live producers (or be clear).
	for reg, age := range s.regProducer {
		if age != 0 && !s.live(age) {
			return fmt.Errorf("rename map for r%d points at dead age %d", reg, age)
		}
	}
	if err := s.checkWakeupInvariants(); err != nil {
		return err
	}
	return s.checkStoreSide()
}

// slotLive reports whether ROB slot idx lies in the live window.
func (s *Sim) slotLive(idx int) bool {
	off := idx - s.headIdx
	if off < 0 {
		off += len(s.robHot)
	}
	return off < s.count
}

// checkStoreSide verifies the store side's derived state against what it
// is derived from. The SQ index's oldest-unresolved position and every
// filter bucket are recounted from the SQ: a count too low hides a
// forwarding store from a load. Every store on the data-wait list must
// have a walk coming, its producer marked or a walk pending: a store that
// could take its data with no walk coming is a lost wakeup, and would
// never complete. A mark may sit only on a live, incomplete slot.
func (s *Sim) checkStoreSide() error {
	want, got := sqIndexOf(s.sq), s.sqIdx
	if got.unresolved != want.unresolved {
		return fmt.Errorf("SQ index names position %d as the oldest unresolved store, the SQ says %d",
			got.unresolved, want.unresolved)
	}
	for b, n := range want.counts {
		if got.counts[b] != n {
			return fmt.Errorf("SQ filter bucket %d counts %d granules, the SQ's resolved stores hold %d",
				b, got.counts[b], n)
		}
	}
	for _, ev := range s.dataWait {
		if !s.live(ev.age) {
			return fmt.Errorf("data-wait list holds dead age %d", ev.age)
		}
		h := s.hotOf(ev.age)
		if h.epoch != ev.epoch || !h.op.IsStore() || h.flags&(fAddrResolved|fDataReady) != fAddrResolved {
			return fmt.Errorf("data-wait list holds age %d, which is not a resolved store waiting on its data", ev.age)
		}
		if s.dwPending {
			continue
		}
		p := h.src2Idx
		if p < 0 || srcReady(&s.robHot[p], h.src2Prod) {
			return fmt.Errorf("store age %d can take its data but no data-wait walk is pending: lost wakeup", h.age)
		}
		if !s.dwMark[p] {
			return fmt.Errorf("store age %d waits on slot %d, which is unmarked, and no data-wait walk is pending: lost wakeup", h.age, p)
		}
	}
	for p, m := range s.dwMark {
		if m && (!s.slotLive(p) || s.robHot[p].state == stCompleted) {
			return fmt.Errorf("data-wait mark on slot %d, which is dead or completed", p)
		}
	}
	return nil
}

// checkWakeupInvariants verifies the event-wakeup structures: the ready
// bitmap's population count, the readiness/parking dichotomy of every
// waiting entry, and the exact membership and linkage of every consumer
// list. Their silent corruption loses or duplicates wakeups — an entry
// that is neither ready nor parked can never issue — so the sweep pins
// them as tightly as the ROB counters above.
func (s *Sim) checkWakeupInvariants() error {
	n := len(s.robHot)
	pop := 0
	for _, w := range s.readyBM {
		pop += bits.OnesCount64(w)
	}
	if pop != s.readyCnt {
		return fmt.Errorf("ready bitmap population %d, counter says %d", pop, s.readyCnt)
	}
	parked := 0
	for idx := 0; idx < n; idx++ {
		bit := s.readyAt(idx)
		on := s.consOn[idx]
		if !s.slotLive(idx) {
			switch {
			case bit:
				return fmt.Errorf("ready bit set on dead slot %d", idx)
			case on >= 0:
				return fmt.Errorf("dead slot %d still parked on producer slot %d", idx, on)
			case s.consHead[idx] >= 0:
				return fmt.Errorf("dead slot %d still has consumer list head %d", idx, s.consHead[idx])
			}
			continue
		}
		h := &s.robHot[idx]
		if bit && h.state != stWaiting {
			return fmt.Errorf("ready bit set on non-waiting slot %d (age %d, state %d)", idx, h.age, h.state)
		}
		if bit && on >= 0 {
			return fmt.Errorf("slot %d (age %d) both ready and parked on slot %d", idx, h.age, on)
		}
		if h.state == stWaiting && !bit && on < 0 {
			return fmt.Errorf("waiting slot %d (age %d) neither ready nor parked: it can never issue", idx, h.age)
		}
		if on >= 0 {
			parked++
			p := &s.robHot[on]
			if !s.slotLive(int(on)) {
				return fmt.Errorf("slot %d parked on dead producer slot %d", idx, on)
			}
			if p.state == stCompleted {
				return fmt.Errorf("slot %d (age %d) parked on completed producer age %d: missed wake", idx, h.age, p.age)
			}
			if p.age >= h.age {
				return fmt.Errorf("slot %d (age %d) parked on non-older producer age %d", idx, h.age, p.age)
			}
		}
	}
	// Every consumer list must be a well-linked chain whose members are
	// exactly the slots parked on its owner; summed over all lists that
	// accounts for every parked slot (so no chain hides a cycle or an
	// orphan, and no parked slot is missing from its chain).
	members := 0
	for p := 0; p < n; p++ {
		prev := int32(-1)
		steps := 0
		for c := s.consHead[p]; c >= 0; c = s.consNext[c] {
			if steps++; steps > n {
				return fmt.Errorf("consumer list of slot %d exceeds %d members: chain cycle", p, n)
			}
			if s.consOn[c] != int32(p) {
				return fmt.Errorf("slot %d on consumer list of slot %d but consOn says %d", c, p, s.consOn[c])
			}
			if s.consPrev[c] != prev {
				return fmt.Errorf("consumer list of slot %d: slot %d has prev %d, want %d", p, c, s.consPrev[c], prev)
			}
			prev = c
			members++
		}
	}
	if members != parked {
		return fmt.Errorf("consumer lists hold %d members, %d slots are parked", members, parked)
	}
	return nil
}
