package core

import (
	"math/bits"

	"dmdc/internal/isa"
)

// Event-driven issue wakeup.
//
// The issue stage never walks the window. Each producer ROB slot keeps an
// intrusive list of the consumers blocked on it, completion marks those
// consumers in a slot-indexed ready bitmap, and the issue stage picks
// oldest-first by scanning bitmap words along the ROB ring — a
// broadcast-free wakeup network in the spirit of delay-tracked scheduling
// (Diavastos & Carlson). The per-cycle cost is proportional to the
// handful of ready instructions, not the whole window.
//
// Readiness contract: every stWaiting entry in the window is either in
// the ready bitmap or parked on exactly one incomplete, older producer.
// A bit is cleared only when its entry issues, is squashed, or parks;
// producers flip to completed only in completeStage, which runs before
// issueStage and wakes their consumers there, so an entry whose operands
// are ready is never missed, nor seen a cycle late. CheckInvariants pins
// that dichotomy, the bitmap population count and the consumer-list
// linkage on every sweep; the golden suite pins the resulting cycle
// counts byte-for-byte.

// fuState tracks the per-cycle issue-width and functional-unit budgets.
type fuState struct {
	issued   int
	intALU   int
	intMD    int
	fpALU    int
	fpMD     int
	memPorts int
}

// ok reports whether a unit for op is still available this cycle.
func (f *fuState) ok(s *Sim, op isa.Op) bool {
	switch {
	case op == isa.OpIMul || op == isa.OpIDiv:
		return f.intMD < s.cfg.IntMulDiv
	case op == isa.OpFMul || op == isa.OpFDiv:
		return f.fpMD < s.cfg.FPMulDiv
	case op.IsFP():
		return f.fpALU < s.cfg.FPALUs
	case op.IsLoad():
		return f.intALU < s.cfg.IntALUs && f.memPorts < s.cfg.MemPorts
	default:
		return f.intALU < s.cfg.IntALUs
	}
}

// take consumes the units for one issued op.
func (f *fuState) take(op isa.Op) {
	f.issued++
	switch {
	case op == isa.OpIMul || op == isa.OpIDiv:
		f.intMD++
	case op == isa.OpFMul || op == isa.OpFDiv:
		f.fpMD++
	case op.IsFP():
		f.fpALU++
	case op.IsLoad():
		f.intALU++
		f.memPorts++
	default:
		f.intALU++
	}
}

// setReady marks ROB slot idx issue-ready. Idempotent so readyCnt stays
// an exact population count.
func (s *Sim) setReady(idx int) {
	w, b := idx>>6, uint(idx)&63
	if s.readyBM[w]&(1<<b) == 0 {
		s.readyBM[w] |= 1 << b
		s.readyCnt++
	}
}

// clearReady unmarks ROB slot idx.
func (s *Sim) clearReady(idx int) {
	w, b := idx>>6, uint(idx)&63
	if s.readyBM[w]&(1<<b) != 0 {
		s.readyBM[w] &^= 1 << b
		s.readyCnt--
	}
}

// readyAt reports slot idx's bit (invariant checks and tests).
func (s *Sim) readyAt(idx int) bool {
	return s.readyBM[idx>>6]&(1<<(uint(idx)&63)) != 0
}

// parkOn blocks consumer slot c on producer slot p: the ready bit is
// cleared and c is pushed onto p's consumer list, to be set ready again
// when p completes. The list is intrusive and doubly linked so a squash
// can unlink any member in O(1) — lazy cleanup is not an option here,
// because a recycled consumer slot re-registering while a stale chain
// still names it would tie the chain into a cycle.
func (s *Sim) parkOn(c, p int) {
	s.clearReady(c)
	s.consOn[c] = int32(p)
	s.consPrev[c] = -1
	next := s.consHead[p]
	s.consNext[c] = next
	if next >= 0 {
		s.consPrev[next] = int32(c)
	}
	s.consHead[p] = int32(c)
}

// unpark unlinks slot c from the consumer list it is registered on, if
// any. Safe to call on squashed slots whose producer was also squashed:
// the unlink only touches chain neighbours, which are unlinked
// independently by their own unpark calls.
func (s *Sim) unpark(c int) {
	p := s.consOn[c]
	if p < 0 {
		return
	}
	s.consOn[c] = -1
	next, prev := s.consNext[c], s.consPrev[c]
	if prev >= 0 {
		s.consNext[prev] = next
	} else {
		s.consHead[p] = next
	}
	if next >= 0 {
		s.consPrev[next] = prev
	}
}

// wakeConsumers marks every consumer parked on producer slot p ready and
// empties the list. Called when p's entry completes — before issueStage
// runs this cycle, so a consumer woken by a completion can issue in the
// cycle its operand becomes available.
func (s *Sim) wakeConsumers(p int) {
	c := s.consHead[p]
	s.consHead[p] = -1
	for c >= 0 {
		next := s.consNext[c]
		s.consOn[c] = -1
		s.setReady(int(c))
		c = next
	}
}

// wakeIter yields the ready-bitmap slots in age order: the ROB ring is
// walked from the head as up to two linear segments, one bitmap word at
// a time. A word is snapshotted into cur when first reached; bits a
// mid-cycle squash clears afterwards are still yielded from the snapshot
// and rejected by the caller's liveness gate.
type wakeIter struct {
	bm       []uint64
	cur      uint64 // unconsumed bits of the current word
	base     int    // slot index of cur's bit 0
	lo, hi   int    // active segment [lo, hi)
	lo2, hi2 int    // wrapped second segment; hi2 < 0 when none/consumed
}

// newWakeIter initializes it over the current live window. The window
// bounds are snapshotted: commit (the only thing that moves the head)
// ran earlier in the cycle, and dispatch (the only thing that grows the
// tail) runs later, so only mid-cycle squash shrink matters — handled by
// the caller's per-candidate liveness re-check.
func (s *Sim) newWakeIter(it *wakeIter) {
	n := len(s.robHot)
	it.bm = s.readyBM
	it.cur, it.base = 0, 0
	end := s.headIdx + s.count
	if end <= n {
		it.lo, it.hi = s.headIdx, end
		it.lo2, it.hi2 = 0, -1
	} else {
		it.lo, it.hi = s.headIdx, n
		it.lo2, it.hi2 = 0, end-n
	}
}

// nextSlot returns the next set slot in ring order, or -1 when the
// window is exhausted.
func (it *wakeIter) nextSlot() int {
	for {
		for it.cur == 0 {
			if it.lo >= it.hi {
				if it.hi2 < 0 {
					return -1
				}
				it.lo, it.hi = it.lo2, it.hi2
				it.hi2 = -1
				continue
			}
			w := it.lo >> 6
			word := it.bm[w] >> (uint(it.lo) & 63) << (uint(it.lo) & 63)
			if top := (w + 1) << 6; top > it.hi {
				word &= 1<<(uint(it.hi)&63) - 1
			}
			it.cur = word
			it.base = w << 6
			it.lo = (w + 1) << 6
		}
		b := bits.TrailingZeros64(it.cur)
		it.cur &= it.cur - 1
		return it.base + b
	}
}

// nextAttempt advances it to the next slot passing every issue gate and
// returns it, or -1. The gates run in a fixed order: liveness, state,
// notBefore, FU availability, then src1 and (for non-memory ops) src2
// readiness — memory ops need only the address operand to begin; stores
// handle data separately. notBefore- and FU-blocked slots keep their
// ready bit and are re-examined next cycle, while an operand-blocked slot
// is parked on its first incomplete producer: it is not seen again until
// that producer completes, which is the first cycle its readiness test
// could succeed (srcReady is monotonic and flips only in completeStage).
// A positive readiness result clears the slot pointer, so a blocked or
// rejected entry never re-reads a producer it already saw complete.
func (s *Sim) nextAttempt(it *wakeIter, fu *fuState) int {
	for {
		idx := it.nextSlot()
		if idx < 0 {
			return -1
		}
		h := &s.robHot[idx]
		// Liveness against the *current* window: an earlier attempt this
		// cycle may have squashed this candidate (its bit is already
		// cleared; the iterator's word snapshot is what is stale).
		if off := h.age - s.headAge; off >= uint64(s.count) {
			continue
		}
		if h.state != stWaiting {
			// Issued through another path (store data-ready fast path);
			// drop the stale bit.
			s.clearReady(idx)
			continue
		}
		if s.cycle < h.notBefore {
			continue // bit stays set; retried next cycle
		}
		if !fu.ok(s, h.op) {
			continue // structural block: bit stays set
		}
		if pi := h.src1Idx; pi >= 0 {
			if p := &s.robHot[pi]; srcReady(p, h.src1Prod) {
				h.src1Idx = -1
			} else {
				s.parkOn(idx, int(pi))
				continue
			}
		}
		if !h.op.IsMem() {
			if pi := h.src2Idx; pi >= 0 {
				if p := &s.robHot[pi]; srcReady(p, h.src2Prod) {
					h.src2Idx = -1
				} else {
					s.parkOn(idx, int(pi))
					continue
				}
			}
		}
		return idx
	}
}

// issueStage selects ready instructions oldest-first out of the bitmap,
// up to the issue width and functional-unit limits, and begins their
// execution.
func (s *Sim) issueStage() {
	if s.readyCnt == 0 {
		return // nothing dispatched, woken, or retrying — provably idle
	}
	var (
		fu fuState
		it wakeIter
	)
	s.newWakeIter(&it)
	width := s.cfg.IssueWidth
	for fu.issued < width {
		idx := s.nextAttempt(&it, &fu)
		if idx < 0 {
			break
		}
		h := &s.robHot[idx]
		if kept := s.beginExecution(idx, h); kept {
			// Rejected load: the bit stays set and notBefore (set by the
			// rejection) gates the retry.
			if s.tracing {
				s.traceEvent("RJ", h.age, &s.robData[idx].inst, "")
			}
			continue
		}
		if s.tracing {
			s.traceEvent("IS", h.age, &s.robData[idx].inst, "")
		}
		s.clearReady(idx)
		fu.take(h.op)
	}
	if s.tel != nil {
		s.telIssued += uint64(fu.issued)
	}
}
