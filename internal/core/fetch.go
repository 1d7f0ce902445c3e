package core

import (
	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/telemetry"
)

// fetchQCap bounds the decoupling queue between fetch and dispatch.
func (s *Sim) fetchQCap() int { return 3 * s.cfg.FetchWidth }

// fetchQLen is the number of pending fetched instructions (the queue is
// consumed from fqHead).
func (s *Sim) fetchQLen() int { return len(s.fetchQ) - s.fqHead }

// fetchStage pulls up to FetchWidth instructions from the active source:
// the replay queue (after a memory-order replay), the wrong-path stream
// (after an undetected misprediction), or the committed-path generator.
func (s *Sim) fetchStage() {
	if s.cycle < s.fetchResume {
		return
	}
	if s.fetchQLen() >= s.fetchQCap() {
		return
	}
	// One I-cache access per fetch cycle; a miss stalls the front end.
	first, ok := s.peekPC()
	if !ok {
		return // wrong-path stall with no stream (BTB miss on taken branch)
	}
	s.em.Add(energy.CompL1I, s.costL1I)
	if lat := s.mem.L1I.Access(first, false); lat > s.cfg.Memory.L1I.Latency {
		s.fetchResume = s.cycle + uint64(lat)
		return
	}
	fetched := 0
	for fetched < s.cfg.FetchWidth && s.fetchQLen() < s.fetchQCap() {
		if s.wpActive || s.rqHead < len(s.replayQ) || s.wlBatch == nil {
			// Single-instruction sources: the wrong-path stream, the replay
			// queue, or a workload without batch support. Reserve the queue
			// slot first and fill it in place — building the instruction in
			// a local and appending would copy ~100 bytes twice.
			base := len(s.fetchQ)
			s.fetchQ = append(s.fetchQ, isa.Inst{})
			s.fetchQMeta = append(s.fetchQMeta, fetchMeta{})
			if !s.nextFetch(&s.fetchQ[base], &s.fetchQMeta[base]) {
				s.fetchQ = s.fetchQ[:base]
				s.fetchQMeta = s.fetchQMeta[:base]
				break
			}
			fetched++
			if s.postFetch(base) {
				break
			}
			continue
		}
		// Committed-path generator with batch support: generate up to a
		// fetch group directly into the fetch-queue slots. A batch never
		// crosses a branch (see Batcher), so prediction-driven redirects
		// can only fire on a batch's last instruction and pre-generated
		// state never outruns the front end.
		room := s.cfg.FetchWidth - fetched
		if q := s.fetchQCap() - s.fetchQLen(); q < room {
			room = q
		}
		base := len(s.fetchQ)
		if cap(s.fetchQ) >= base+room {
			s.fetchQ = s.fetchQ[:base+room]
		} else {
			s.fetchQ = append(s.fetchQ, make([]isa.Inst, room)...)
		}
		n := s.wlBatch.NextBatch(s.fetchQ[base : base+room])
		s.fetchQ = s.fetchQ[:base+n]
		if cap(s.fetchQMeta) >= base+n {
			s.fetchQMeta = s.fetchQMeta[:base+n]
		} else {
			s.fetchQMeta = append(s.fetchQMeta[:base], make([]fetchMeta, n)...)
		}
		brk := false
		for j := base; j < base+n; j++ {
			in := &s.fetchQ[j]
			s.lastGenPC = in.PC + 4
			s.fetchQMeta[j] = fetchMeta{}
			s.decorate(&s.fetchQMeta[j], in)
			fetched++
			if s.postFetch(j) {
				brk = true
				break
			}
		}
		if brk {
			break
		}
	}
	if s.tel != nil {
		s.telFetched += uint64(fetched)
	}
}

// postFetch traces the newly fetched instruction in slot j and reports
// whether fetch must break for the cycle (redirect after a taken or
// mispredicted branch).
func (s *Sim) postFetch(j int) bool {
	in := &s.fetchQ[j]
	mi := &s.fetchQMeta[j]
	if s.tracing {
		wp := ""
		if mi.wrongPath {
			wp = "(wrong-path)"
		}
		s.traceEvent("FE", 0, in, wp)
	}
	if in.Op.IsBranch() {
		// Fetch break after any predicted-taken (or wrong-path taken)
		// branch: the front end redirects next cycle.
		if (mi.predicted && mi.pred.Taken) || (!mi.predicted && in.Taken) {
			return true
		}
		if mi.mispred {
			return true
		}
	}
	return false
}

// peekPC returns the PC fetch would read this cycle. Wrong-path mode has
// priority over every other source: once a misprediction redirects the
// front end, fetch must follow the (wrong) predicted path even if replay
// instructions are queued behind it.
func (s *Sim) peekPC() (uint64, bool) {
	switch {
	case s.wpActive:
		if s.wpStream == nil {
			return 0, false
		}
		// Peeking a generator is destructive; use the last fetched PC as
		// the access proxy (fetch blocks are contiguous anyway).
		return s.lastWPPC, true
	case s.rqHead < len(s.replayQ):
		return s.replayQ[s.rqHead].PC, true
	default:
		return s.lastGenPC, true
	}
}

// nextFetch fills the zeroed fetch-queue slot (in, mi) with the next
// instruction from the active fetch source, running branch prediction for
// correct-path branches. It reports whether an instruction was produced.
func (s *Sim) nextFetch(in *isa.Inst, mi *fetchMeta) bool {
	switch {
	case s.wpActive:
		if s.wpStream == nil {
			return false
		}
		*in = s.wpStream.Next()
		s.lastWPPC = in.PC + 4
		s.wrongPathFetched++
		// Wrong-path instructions are not predicted: their branch fields
		// already carry the stream's guessed direction.
		mi.wrongPath = true
		return true
	case s.rqHead < len(s.replayQ):
		// Pop from the head index: the old copy-shift made draining an
		// n-entry replay queue O(n²) after every big squash.
		*in = s.replayQ[s.rqHead]
		s.decorate(mi, in)
		s.rqHead++
		if s.rqHead == len(s.replayQ) {
			s.replayQ = s.replayQ[:0]
			s.rqHead = 0
		}
		return true
	default:
		*in = s.wl.Next()
		s.lastGenPC = in.PC + 4
		s.decorate(mi, in)
		return true
	}
}

// decorate runs branch prediction on the correct-path instruction in and,
// on a misprediction, switches fetch to the wrong path.
func (s *Sim) decorate(mi *fetchMeta, in *isa.Inst) {
	if !in.Op.IsBranch() {
		return
	}
	mi.histCp = s.bp.HistoryCheckpoint()
	mi.pred = s.bp.Predict(in.PC)
	mi.predicted = true
	s.em.Add(energy.CompBPred, s.costBPred)
	mispredicted := mi.pred.Taken != in.Taken || (in.Taken && !mi.pred.BTBHit)
	if mispredicted {
		mi.mispred = true
		s.wpActive = true
		s.fetchSalt++
		if mi.pred.Taken && !mi.pred.BTBHit {
			// Direction says taken but no target: the front end stalls
			// until the branch resolves.
			s.wpStream = nil
		} else {
			s.wpStream = s.wl.WrongPath(in.PC, mi.pred.Taken, s.fetchSalt)
			if s.wpStream != nil {
				s.lastWPPC = in.PC + 4
			}
		}
	}
}

// dispatchStage renames and inserts fetched instructions into the ROB,
// issue queues, and memory queues, stalling on any structural hazard.
func (s *Sim) dispatchStage() {
	width := s.cfg.FetchWidth
	for n := 0; n < width && s.fetchQLen() > 0; n++ {
		if s.count >= len(s.robHot) {
			s.dispatchHazard(telemetry.HazROBFull)
			return // ROB full
		}
		in := &s.fetchQ[s.fqHead]
		// Issue-queue space by cluster.
		fp := in.Op.IsFP()
		if fp && s.iqFP >= s.cfg.IQFP {
			s.dispatchHazard(telemetry.HazIQFull)
			return
		}
		if !fp && !in.Op.IsMem() && s.iqInt >= s.cfg.IQInt {
			s.dispatchHazard(telemetry.HazIQFull)
			return
		}
		if in.Op.IsMem() && s.iqInt >= s.cfg.IQInt {
			s.dispatchHazard(telemetry.HazIQFull)
			return // address generation uses the integer cluster
		}
		// Physical registers.
		if in.HasDest() {
			if isa.IsFPReg(in.Dest) {
				if s.freeFP == 0 {
					s.dispatchHazard(telemetry.HazRegsFull)
					return
				}
			} else if s.freeInt == 0 {
				s.dispatchHazard(telemetry.HazRegsFull)
				return
			}
		}
		// Memory structures.
		if in.Op.IsLoad() && s.inflightLoads >= s.loadCap {
			s.dispatchHazard(telemetry.HazLQFull)
			return
		}
		if in.Op.IsStore() && len(s.sq) >= s.cfg.SQSize {
			s.dispatchHazard(telemetry.HazSQFull)
			return
		}
		s.insert(in, &s.fetchQMeta[s.fqHead])
		s.fqHead++
		if s.fqHead == len(s.fetchQ) {
			s.fetchQ = s.fetchQ[:0]
			s.fetchQMeta = s.fetchQMeta[:0]
			s.fqHead = 0
		} else if s.fqHead >= 4*s.fetchQCap() {
			// The queue rarely drains fully under a steady front end; compact
			// occasionally so the backing array stays a few fetch groups long.
			k := copy(s.fetchQ, s.fetchQ[s.fqHead:])
			copy(s.fetchQMeta, s.fetchQMeta[s.fqHead:])
			s.fetchQ = s.fetchQ[:k]
			s.fetchQMeta = s.fetchQMeta[:k]
			s.fqHead = 0
		}
	}
}

// insert allocates the ROB entry and all side structures for one
// instruction.
func (s *Sim) insert(in *isa.Inst, mi *fetchMeta) {
	age := s.nextAge
	s.nextAge++
	idx := s.headIdx + s.count
	if idx >= len(s.robHot) {
		idx -= len(s.robHot)
	}
	s.count++
	h := &s.robHot[idx]
	// Field-by-field reset of the recycled slot: a composite literal here is
	// built in a temporary and copied in. Every field must be written or
	// explicitly zeroed.
	h.age = age
	h.notBefore = 0
	h.compCycle = 0
	h.src1Prod = s.lookupProducer(in.Src1)
	h.src2Prod = s.lookupProducer(in.Src2)
	h.src1Idx = -1
	h.src2Idx = -1
	h.epoch = s.epoch
	h.state = stWaiting
	h.flags = 0
	if mi.wrongPath {
		h.flags = fWrongPath
	}
	if in.HasDest() {
		h.flags |= fHasDest
	}
	h.op = in.Op
	d := &s.robData[idx]
	d.inst = *in
	d.pred = mi.pred
	d.histCp = mi.histCp
	d.mispredicted = mi.mispred
	d.predicted = mi.predicted
	if p := h.src1Prod; p != 0 {
		h.src1Idx = int32(s.idxOf(p))
	}
	if p := h.src2Prod; p != 0 {
		h.src2Idx = int32(s.idxOf(p))
	}
	if mi.mispred {
		s.wpBranchAge = age
	}
	if s.tracing {
		s.traceEvent("DI", age, in, "")
	}
	s.em.Add(energy.CompROB, s.costROB)
	s.em.Add(energy.CompRename, s.costRename)
	if in.Op.IsMem() {
		h.flags |= fHasMem
		m := &s.memOps[idx]
		*m = lsq.MemOp{
			Age:       age,
			IsLoad:    in.Op.IsLoad(),
			Addr:      in.Addr,
			Size:      in.Size,
			WrongPath: mi.wrongPath,
		}
		if in.Op.IsLoad() {
			s.inflightLoads++
			s.polLoadDispatch(m)
		} else {
			// The new store's address is unresolved. The SQ index needs no
			// update: with no older store unresolved, its position, len(sq)
			// before the append, now names this one.
			s.sq = append(s.sq, sqEntry{age: age, seq: in.Seq, addr: in.Addr, size: in.Size})
			s.em.Add(energy.CompSQ, s.costSQWrite)
			for _, mon := range s.monitors {
				mon.StoreDispatch(m)
			}
		}
	}
	// Rename: record the new producer and consume a register.
	if in.HasDest() {
		s.regProducer[in.Dest] = age
		if isa.IsFPReg(in.Dest) {
			s.freeFP--
		} else {
			s.freeInt--
		}
	}
	if in.Op.IsFP() {
		s.iqFP++
	} else {
		s.iqInt++
	}
	// Scheduler insertion. A fresh entry starts issue-ready: its first
	// visit either issues it or parks it on the first incomplete producer.
	s.setReady(idx)
	if s.faultsActive {
		s.applyDispatchFaults(idx)
	}
}
