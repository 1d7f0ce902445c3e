package core

import (
	"fmt"
	"math"
	"math/bits"

	"dmdc/internal/bpred"
	"dmdc/internal/checkpoint"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
)

// CheckpointableWorkload is a Workload whose complete dynamic state can be
// captured and restored. The synthetic trace generator implements it; a
// workload that does not cannot be checkpointed (fail closed).
type CheckpointableWorkload interface {
	Workload
	SaveState(e *checkpoint.Encoder)
	LoadState(d *checkpoint.Decoder) error
	// WrongPathScratch returns the workload's live reusable wrong-path
	// stream after a LoadState, or nil if none was live at save time.
	WrongPathScratch() InstSource
}

func (w generatorWorkload) SaveState(e *checkpoint.Encoder) { w.g.SaveState(e) }

func (w generatorWorkload) LoadState(d *checkpoint.Decoder) error { return w.g.LoadState(d) }

func (w generatorWorkload) WrongPathScratch() InstSource {
	ws := w.g.WrongPathScratch()
	if ws == nil {
		return nil // avoid a typed-nil interface
	}
	return ws
}

// checkpointable reports why this Sim cannot be checkpointed, or nil.
// Checkpointing is deliberately fail-closed: every attached observer or
// debugging subsystem whose state is not serialized refuses the save,
// rather than silently dropping state and diverging after restore.
func (s *Sim) checkpointable() error {
	refuse := func(what string) error {
		return fmt.Errorf("core: cannot checkpoint: %s is attached and has unserialized state", what)
	}
	switch {
	case s.poisoned != nil:
		return fmt.Errorf("core: cannot checkpoint a poisoned simulation: %w", s.poisoned)
	case s.simErr != nil:
		return fmt.Errorf("core: cannot checkpoint a failed simulation: %w", s.simErr)
	case len(s.monitors) > 0:
		return refuse("a monitor")
	case s.commitHook != nil:
		return refuse("a commit hook")
	case s.ptrace != nil:
		return refuse("a pipeline trace")
	case s.tel != nil:
		return refuse("a telemetry sampler")
	case s.oracle != nil || s.oracleRef != nil:
		return refuse("the soundness oracle")
	case s.ring != nil || s.ringWanted:
		return refuse("the event ring")
	case s.faultsActive:
		return refuse("fault injection")
	case s.invariantEvery > 0:
		return refuse("invariant sweeping")
	}
	if _, ok := s.wl.(CheckpointableWorkload); !ok {
		return fmt.Errorf("core: cannot checkpoint: workload %T is not checkpointable", s.wl)
	}
	if _, ok := s.pol.(lsq.Checkpointable); !ok {
		return fmt.Errorf("core: cannot checkpoint: policy %q is not checkpointable", s.pol.Name())
	}
	return nil
}

// SaveCheckpoint serializes the simulation's complete state — pipeline,
// predictor, caches, energy accumulators, workload generator, and policy —
// into a self-validating checkpoint record. The Sim is not modified; a
// run continued after a save is byte-identical to one never saved.
func (s *Sim) SaveCheckpoint() ([]byte, error) {
	if err := s.checkpointable(); err != nil {
		return nil, err
	}
	cw := s.wl.(CheckpointableWorkload)
	cp := s.pol.(lsq.Checkpointable)
	e := checkpoint.NewEncoder()

	// Header: identity of the simulation this state belongs to. Restore
	// refuses a target built differently (Mismatch, never a guess). The
	// scheduler byte is always 0, the one issue scheduler there is; it
	// stays in the format so blobs, and the content addresses derived
	// from their hashes, do not change.
	e.Section("header")
	e.String(s.cfg.Name)
	e.String(s.wl.Meta().Name)
	e.I64(s.wl.Meta().Seed)
	e.String(s.pol.Name())
	e.U8(0)
	e.Bool(s.sqFilter)
	e.U64(math.Float64bits(s.invRate))
	e.U32(uint32(s.cfg.ROBSize))
	e.Bool(s.em.Enabled())

	e.Section("core")
	e.U64(s.cycle)
	e.U64(s.nextAge)
	e.U64(s.headAge)
	e.Int(s.headIdx)
	e.Int(s.count)
	e.U32(s.epoch)
	e.Int(s.iqInt)
	e.Int(s.iqFP)
	e.Int(s.freeInt)
	e.Int(s.freeFP)
	for _, p := range s.regProducer {
		e.U64(p)
	}
	e.Int(s.inflightLoads)
	e.Bool(s.wpActive)
	e.Bool(s.wpStream != nil)
	e.U64(s.wpBranchAge)
	e.U64(s.fetchResume)
	e.U64(s.fetchSalt)
	e.U64(s.lastGenPC)
	e.U64(s.lastWPPC)
	e.Rand(s.invRng)
	e.U64(s.committed)
	e.U64(s.lastCommitCycle)
	for _, v := range s.replayCounts {
		e.U64(v)
	}
	e.U64(s.replaysWrongPath)
	e.U64(s.loadRejections)
	e.U64(s.forwards)
	e.U64(s.wrongPathFetched)
	e.U64(s.invInjected)
	e.U64(s.mispredictRecoveries)
	e.U64(s.sqSearches)
	e.U64(s.sqSearchFiltered)

	// ROB struct-of-arrays, all slots. Dead slots are serialized too:
	// restore then reproduces the original arrays bit-for-bit, which keeps
	// the encoding canonical (decode→encode is the identity).
	e.Section("rob")
	for i := range s.robHot {
		h := &s.robHot[i]
		e.U64(h.age)
		e.U64(h.notBefore)
		e.U64(h.compCycle)
		e.U64(h.src1Prod)
		e.U64(h.src2Prod)
		e.I32(h.src1Idx)
		e.I32(h.src2Idx)
		e.U32(h.epoch)
		e.U8(h.state)
		e.U8(h.flags)
		e.U8(uint8(h.op))
	}
	for i := range s.robData {
		d := &s.robData[i]
		saveInst(e, &d.inst)
		savePred(e, &d.pred)
		e.U32(d.histCp)
		e.Bool(d.mispredicted)
		e.Bool(d.predicted)
	}
	for i := range s.memOps {
		op := &s.memOps[i]
		e.U64(op.Age)
		e.Bool(op.IsLoad)
		e.U64(op.Addr)
		e.U8(op.Size)
		e.Bool(op.WrongPath)
		e.Bool(op.Issued)
		e.U64(op.IssueCycle)
		e.U64(op.ResolveCycle)
		e.Bool(op.SafeAtIssue)
		e.U64(op.FwdSeq)
		e.Bool(op.Unsafe)
		e.U64(op.EndAge)
		e.U32(op.HashKey)
		e.U8(op.Bitmap)
	}

	// The sched section opens with a list count that is always 0 (no
	// entries follow), kept for the same byte stability as the header's
	// scheduler byte.
	e.Section("sched")
	e.U32(0)
	for _, w := range s.readyBM {
		e.U64(w)
	}
	for _, arr := range [][]int32{s.consHead, s.consNext, s.consPrev, s.consOn} {
		for _, v := range arr {
			e.I32(v)
		}
	}
	e.U32(uint32(len(s.dataWait)))
	for _, ev := range s.dataWait {
		e.U64(ev.age)
		e.U32(ev.epoch)
	}
	for _, slot := range s.wheel {
		e.U32(uint32(len(slot)))
		for _, ev := range slot {
			e.U64(ev.age)
			e.U32(ev.epoch)
		}
	}

	// Fetch and replay queues: live windows only, restored head-at-zero.
	e.Section("fetch")
	e.U32(uint32(s.fetchQLen()))
	for i := s.fqHead; i < len(s.fetchQ); i++ {
		saveInst(e, &s.fetchQ[i])
		m := &s.fetchQMeta[i]
		e.Bool(m.wrongPath)
		savePred(e, &m.pred)
		e.U32(m.histCp)
		e.Bool(m.mispred)
		e.Bool(m.predicted)
	}
	e.U32(uint32(len(s.replayQ) - s.rqHead))
	for i := s.rqHead; i < len(s.replayQ); i++ {
		saveInst(e, &s.replayQ[i])
	}

	e.Section("sq")
	e.U32(uint32(len(s.sq)))
	for i := range s.sq {
		q := &s.sq[i]
		e.U64(q.age)
		e.U64(q.seq)
		e.U64(q.addr)
		e.U8(q.size)
		e.Bool(q.addrResolved)
		e.Bool(q.dataReady)
	}

	s.bp.SaveState(e)
	s.mem.SaveState(e)
	s.em.SaveState(e)
	cw.SaveState(e)
	cp.SaveState(e)
	return e.Finish(), nil
}

// RestoreCheckpoint loads a checkpoint into a freshly constructed Sim.
// The Sim must be pristine (never stepped) and built with the same
// machine configuration, workload, policy, and feature set as the one
// that saved the record; every divergence is a typed *checkpoint.FormatError.
func (s *Sim) RestoreCheckpoint(data []byte) error {
	if err := s.checkpointable(); err != nil {
		return err
	}
	if s.cycle != 0 || s.committed != 0 || s.nextAge != 1 || s.count != 0 {
		return fmt.Errorf("core: restore target must be a pristine simulation")
	}
	cw := s.wl.(CheckpointableWorkload)
	cp := s.pol.(lsq.Checkpointable)
	d, err := checkpoint.NewDecoder(data)
	if err != nil {
		return err
	}

	d.Section("header")
	if v := d.String(); d.Err() == nil && v != s.cfg.Name {
		return checkpoint.Mismatchf("header", "machine %q, restore target is %q", v, s.cfg.Name)
	}
	if v := d.String(); d.Err() == nil && v != s.wl.Meta().Name {
		return checkpoint.Mismatchf("header", "workload %q, restore target is %q", v, s.wl.Meta().Name)
	}
	if v := d.I64(); d.Err() == nil && v != s.wl.Meta().Seed {
		return checkpoint.Mismatchf("header", "workload seed %d, restore target has %d", v, s.wl.Meta().Seed)
	}
	if v := d.String(); d.Err() == nil && v != s.pol.Name() {
		return checkpoint.Mismatchf("header", "policy %q, restore target is %q", v, s.pol.Name())
	}
	if v := d.U8(); d.Err() == nil && v != 0 {
		return checkpoint.Mismatchf("header", "scheduler %d, restore target uses 0", v)
	}
	if v := d.Bool(); d.Err() == nil && v != s.sqFilter {
		return checkpoint.Mismatchf("header", "SQ filter %v, restore target has %v", v, s.sqFilter)
	}
	if v := d.U64(); d.Err() == nil && v != math.Float64bits(s.invRate) {
		return checkpoint.Mismatchf("header", "invalidation rate differs")
	}
	if v := d.U32(); d.Err() == nil && v != uint32(s.cfg.ROBSize) {
		return checkpoint.Mismatchf("header", "ROB size %d, restore target has %d", v, s.cfg.ROBSize)
	}
	if v := d.Bool(); d.Err() == nil && v != s.em.Enabled() {
		return checkpoint.Mismatchf("header", "energy model enabled=%v, restore target has %v", v, s.em.Enabled())
	}
	if err := d.Err(); err != nil {
		return err
	}

	d.Section("core")
	s.cycle = d.U64()
	s.nextAge = d.U64()
	s.headAge = d.U64()
	s.headIdx = d.Int()
	s.count = d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	robSize := s.cfg.ROBSize
	if s.count < 0 || s.count > robSize {
		return checkpoint.Corruptf("core", "ROB count %d outside [0,%d]", s.count, robSize)
	}
	if s.headIdx < 0 || s.headIdx >= robSize {
		return checkpoint.Corruptf("core", "ROB head index %d outside [0,%d)", s.headIdx, robSize)
	}
	if s.headAge == 0 || s.nextAge != s.headAge+uint64(s.count) {
		return checkpoint.Corruptf("core", "age invariant violated: head %d + count %d != next %d", s.headAge, s.count, s.nextAge)
	}
	s.epoch = d.U32()
	s.iqInt = d.Int()
	s.iqFP = d.Int()
	s.freeInt = d.Int()
	s.freeFP = d.Int()
	for i := range s.regProducer {
		s.regProducer[i] = d.U64()
	}
	s.inflightLoads = d.Int()
	s.wpActive = d.Bool()
	hasWPStream := d.Bool()
	s.wpBranchAge = d.U64()
	s.fetchResume = d.U64()
	s.fetchSalt = d.U64()
	s.lastGenPC = d.U64()
	s.lastWPPC = d.U64()
	d.Rand(s.invRng)
	s.committed = d.U64()
	s.lastCommitCycle = d.U64()
	for i := range s.replayCounts {
		s.replayCounts[i] = d.U64()
	}
	s.replaysWrongPath = d.U64()
	s.loadRejections = d.U64()
	s.forwards = d.U64()
	s.wrongPathFetched = d.U64()
	s.invInjected = d.U64()
	s.mispredictRecoveries = d.U64()
	s.sqSearches = d.U64()
	s.sqSearchFiltered = d.U64()
	if err := d.Err(); err != nil {
		return err
	}

	d.Section("rob")
	for i := range s.robHot {
		h := &s.robHot[i]
		h.age = d.U64()
		h.notBefore = d.U64()
		h.compCycle = d.U64()
		h.src1Prod = d.U64()
		h.src2Prod = d.U64()
		h.src1Idx = d.I32()
		h.src2Idx = d.I32()
		h.epoch = d.U32()
		h.state = d.U8()
		h.flags = d.U8()
		h.op = isa.Op(d.U8())
		if d.Err() != nil {
			break
		}
		if h.state > stCompleted {
			return checkpoint.Corruptf("rob", "slot %d state %d", i, h.state)
		}
		if !h.op.Valid() {
			return checkpoint.Corruptf("rob", "slot %d op %d", i, uint8(h.op))
		}
		if int(h.src1Idx) < -1 || int(h.src1Idx) >= robSize || int(h.src2Idx) < -1 || int(h.src2Idx) >= robSize {
			return checkpoint.Corruptf("rob", "slot %d operand index out of range", i)
		}
	}
	for i := range s.robData {
		rd := &s.robData[i]
		if err := loadInst(d, "rob", &rd.inst); err != nil {
			return err
		}
		loadPred(d, &rd.pred)
		rd.histCp = d.U32()
		rd.mispredicted = d.Bool()
		rd.predicted = d.Bool()
	}
	for i := range s.memOps {
		op := &s.memOps[i]
		op.Age = d.U64()
		op.IsLoad = d.Bool()
		op.Addr = d.U64()
		op.Size = d.U8()
		op.WrongPath = d.Bool()
		op.Issued = d.Bool()
		op.IssueCycle = d.U64()
		op.ResolveCycle = d.U64()
		op.SafeAtIssue = d.Bool()
		op.FwdSeq = d.U64()
		op.Unsafe = d.Bool()
		op.EndAge = d.U64()
		op.HashKey = d.U32()
		op.Bitmap = d.U8()
	}
	if err := d.Err(); err != nil {
		return err
	}

	d.Section("sched")
	if n := d.U32(); d.Err() == nil && n != 0 {
		return checkpoint.Corruptf("sched", "%d entries in a list that is always empty", n)
	}
	s.readyCnt = 0
	for i := range s.readyBM {
		s.readyBM[i] = d.U64()
		s.readyCnt += bits.OnesCount64(s.readyBM[i])
	}
	for _, arr := range [][]int32{s.consHead, s.consNext, s.consPrev, s.consOn} {
		for i := range arr {
			v := d.I32()
			if d.Err() == nil && (int(v) < -1 || int(v) >= robSize) {
				return checkpoint.Corruptf("sched", "consumer link %d out of range", v)
			}
			arr[i] = v
		}
	}
	nd := d.Count(maxQueue)
	s.dataWait = s.dataWait[:0]
	for i := 0; i < nd; i++ {
		s.dataWait = append(s.dataWait, wheelEv{age: d.U64(), epoch: d.U32()})
	}
	for i := range s.wheel {
		n := d.Count(maxQueue)
		s.wheel[i] = s.wheel[i][:0]
		for j := 0; j < n; j++ {
			s.wheel[i] = append(s.wheel[i], wheelEv{age: d.U64(), epoch: d.U32()})
		}
	}
	if err := d.Err(); err != nil {
		return err
	}

	d.Section("fetch")
	nf := d.Count(maxQueue)
	s.fetchQ = s.fetchQ[:0]
	s.fetchQMeta = s.fetchQMeta[:0]
	s.fqHead = 0
	for i := 0; i < nf; i++ {
		var in isa.Inst
		if err := loadInst(d, "fetch", &in); err != nil {
			return err
		}
		var m fetchMeta
		m.wrongPath = d.Bool()
		loadPred(d, &m.pred)
		m.histCp = d.U32()
		m.mispred = d.Bool()
		m.predicted = d.Bool()
		s.fetchQ = append(s.fetchQ, in)
		s.fetchQMeta = append(s.fetchQMeta, m)
	}
	nr := d.Count(maxQueue)
	s.replayQ = s.replayQ[:0]
	s.rqHead = 0
	for i := 0; i < nr; i++ {
		var in isa.Inst
		if err := loadInst(d, "fetch", &in); err != nil {
			return err
		}
		s.replayQ = append(s.replayQ, in)
	}
	s.squashScratch = s.squashScratch[:0]

	d.Section("sq")
	ns := d.Count(maxQueue)
	s.sq = s.sq[:0]
	for i := 0; i < ns; i++ {
		var q sqEntry
		q.age = d.U64()
		q.seq = d.U64()
		q.addr = d.U64()
		q.size = d.U8()
		q.addrResolved = d.Bool()
		q.dataReady = d.Bool()
		if d.Err() != nil {
			break
		}
		switch q.size {
		case 1, 2, 4, 8:
		default:
			return checkpoint.Corruptf("sq", "entry %d size %d", i, q.size)
		}
		s.sq = append(s.sq, q)
	}
	if err := d.Err(); err != nil {
		return err
	}

	if err := s.bp.LoadState(d); err != nil {
		return err
	}
	if err := s.mem.LoadState(d); err != nil {
		return err
	}
	if err := s.em.LoadState(d); err != nil {
		return err
	}
	if err := cw.LoadState(d); err != nil {
		return err
	}
	resolve := func(age uint64) *lsq.MemOp {
		if !s.live(age) {
			return nil
		}
		return s.memAt(s.idxOf(age))
	}
	if err := cp.LoadState(d, resolve); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}

	// Rewire the wrong-path fetch source to the workload's restored
	// scratch stream. A stalled wrong path (BTB miss) has no stream.
	s.wpStream = nil
	if hasWPStream {
		ws := cw.WrongPathScratch()
		if ws == nil {
			return checkpoint.Corruptf("fetch", "wrong-path stream recorded but workload restored none")
		}
		s.wpStream = ws
	}
	return nil
}

// maxQueue bounds variable-length pipeline queues in a checkpoint; every
// real queue is orders of magnitude smaller, and Decoder.Count further
// bounds each list by the remaining payload.
const maxQueue = 1 << 20

func saveInst(e *checkpoint.Encoder, in *isa.Inst) {
	e.U64(in.Seq)
	e.U64(in.PC)
	e.U8(uint8(in.Op))
	e.I16(in.Dest)
	e.I16(in.Src1)
	e.I16(in.Src2)
	e.U64(in.Addr)
	e.U8(in.Size)
	e.Bool(in.Taken)
	e.U64(in.Target)
}

func loadInst(d *checkpoint.Decoder, section string, in *isa.Inst) error {
	in.Seq = d.U64()
	in.PC = d.U64()
	in.Op = isa.Op(d.U8())
	in.Dest = d.I16()
	in.Src1 = d.I16()
	in.Src2 = d.I16()
	in.Addr = d.U64()
	in.Size = d.U8()
	in.Taken = d.Bool()
	in.Target = d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if !in.Op.Valid() {
		return checkpoint.Corruptf(section, "instruction op %d invalid", uint8(in.Op))
	}
	regOK := func(r int16) bool { return r == isa.RegNone || (r >= 0 && r < int16(isa.NumRegs)) }
	if !regOK(in.Dest) || !regOK(in.Src1) || !regOK(in.Src2) {
		return checkpoint.Corruptf(section, "instruction register out of range")
	}
	return nil
}

func savePred(e *checkpoint.Encoder, p *bpred.Prediction) {
	e.Bool(p.Taken)
	e.U64(p.Target)
	e.Bool(p.BTBHit)
	e.Bool(p.UsedGshr)
	e.Int(p.GshareIdx)
}

func loadPred(d *checkpoint.Decoder, p *bpred.Prediction) {
	p.Taken = d.Bool()
	p.Target = d.U64()
	p.BTBHit = d.Bool()
	p.UsedGshr = d.Bool()
	p.GshareIdx = d.Int()
}

// Snapshot returns the result the simulation would report if it ended at
// the current cycle. It requires the same gating as SaveCheckpoint, which
// guarantees the read is pure (in particular, no telemetry sampler is
// attached to flush): the interval scheduler snapshots cumulative
// counters at each checkpoint so a detailed interval's contribution is
// the difference of two snapshots.
func (s *Sim) Snapshot() (*Result, error) {
	if err := s.checkpointable(); err != nil {
		return nil, err
	}
	return s.result(), nil
}

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
// FastForward requires an idle pipeline (it is meant for use between a
// construction or restore and a detailed interval) and the same gating as
// SaveCheckpoint, so a fast-forwarded simulation is always checkpointable.
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
	warmer, _ := s.pol.(lsq.Warmer)
	var buf [64]isa.Inst
	var lastPC uint64
	remaining := n
	for remaining > 0 {
		var batch []isa.Inst
		if s.wlBatch != nil {
			want := uint64(len(buf))
			if remaining < want {
				want = remaining
			}
			k := s.wlBatch.NextBatch(buf[:want])
			batch = buf[:k]
		} else {
			buf[0] = s.wl.Next()
			batch = buf[:1]
		}
		for i := range batch {
			in := &batch[i]
			if warm {
				s.mem.L1I.Access(in.PC, false)
				switch {
				case in.Op.IsBranch():
					cp := s.bp.HistoryCheckpoint()
					pred := s.bp.Predict(in.PC)
					s.bp.Update(in.PC, pred, in.Taken, in.Target)
					if pred.Taken != in.Taken {
						s.bp.RestoreHistory(cp, in.Taken)
					}
				case in.Op.IsLoad():
					s.mem.L1D.Access(in.Addr, false)
					if warmer != nil {
						warmer.WarmLoad(in.Addr, s.nextAge)
					}
				case in.Op.IsStore():
					s.mem.L1D.Access(in.Addr, true)
				}
			}
			s.nextAge++
			s.committed++
			s.cycle++
			lastPC = in.PC
			remaining--
		}
	}
	s.headAge = s.nextAge
	s.lastCommitCycle = s.cycle
	s.lastGenPC = lastPC + 4
	return nil
}
