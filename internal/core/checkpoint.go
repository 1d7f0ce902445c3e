package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dmdc/internal/bpred"
	"dmdc/internal/checkpoint"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
)

// CheckpointableWorkload is a Workload whose complete dynamic state can be
// captured and restored. The synthetic trace generator implements it; a
// workload that does not cannot be checkpointed (fail closed). It batches,
// so a fast-forward, which only checkpointable Sims run, can generate in
// blocks.
type CheckpointableWorkload interface {
	Workload
	Batcher
	// State visits the workload's dynamic state (see checkpoint.Codec) and
	// returns its live reusable wrong-path stream, or nil if none is live;
	// after a decode, that is the restored pipeline's wrong-path source.
	State(c *checkpoint.Codec) InstSource
}

func (w generatorWorkload) State(c *checkpoint.Codec) InstSource {
	w.g.State(c)
	if ws := w.g.WrongPathScratch(); ws != nil {
		return ws
	}
	return nil // avoid a typed-nil interface
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
// into a self-validating checkpoint record. The simulated state is not
// modified; a run continued after a save is byte-identical to one never
// saved. A Sim that streams its committed path settles the stream first,
// so the record holds the live generator (see stream.go). The Sim only
// remembers the record's length, so a repeat save encodes into one buffer
// of that size instead of growing one.
func (s *Sim) SaveCheckpoint() ([]byte, error) {
	if err := s.checkpointable(); err != nil {
		return nil, err
	}
	s.stream.settle()
	e := checkpoint.NewEncoderSize(s.lastSave)
	s.state(&e.Codec)
	blob := e.Finish()
	s.lastSave = len(blob)
	return blob, nil
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
	d, err := checkpoint.NewDecoder(data)
	if err != nil {
		return err
	}
	s.stream.settle()
	s.state(&d.Codec)
	return d.Finish()
}

// state visits the simulation's complete state in checkpoint format order.
// Encoding only reads the Sim. Decoding overwrites it, checks every value
// a later access could trip on, and rebuilds what the format leaves
// implicit: queue heads at zero, the ready count, the SQ index, the
// data-wait marks, the wrong-path stream.
func (s *Sim) state(c *checkpoint.Codec) {
	robSize := s.cfg.ROBSize

	// Header: identity of the simulation this state belongs to. Restore
	// refuses a target built differently (Mismatch, never a guess). The
	// scheduler byte is always 0, the one issue scheduler there is; it
	// stays in the format so blobs, and the content addresses derived
	// from their hashes, do not change.
	c.Section("header")
	checkpoint.Same(c, s.cfg.Name, "machine")
	checkpoint.Same(c, s.wl.Meta().Name, "workload")
	checkpoint.Same(c, s.wl.Meta().Seed, "workload seed")
	checkpoint.Same(c, s.pol.Name(), "policy")
	checkpoint.Same(c, uint8(0), "scheduler")
	checkpoint.Same(c, s.sqFilter, "SQ filter")
	checkpoint.Same(c, math.Float64bits(s.invRate), "invalidation rate bits")
	checkpoint.Same(c, uint32(robSize), "ROB size")
	checkpoint.Same(c, s.em.Enabled(), "energy model enabled")

	c.Section("core")
	c.U64(&s.cycle)
	c.U64(&s.nextAge)
	c.U64(&s.headAge)
	c.Int(&s.headIdx)
	c.Int(&s.count)
	switch {
	case s.count < 0 || s.count > robSize:
		c.Corrupt("ROB count %d outside [0,%d]", s.count, robSize)
	case s.headIdx < 0 || s.headIdx >= robSize:
		c.Corrupt("ROB head index %d outside [0,%d)", s.headIdx, robSize)
	case s.headAge == 0 || s.nextAge != s.headAge+uint64(s.count):
		c.Corrupt("age invariant violated: head %d + count %d != next %d", s.headAge, s.count, s.nextAge)
	}
	c.U32(&s.epoch)
	c.Int(&s.iqInt)
	c.Int(&s.iqFP)
	c.Int(&s.freeInt)
	c.Int(&s.freeFP)
	for i := range s.regProducer {
		c.U64(&s.regProducer[i])
	}
	c.Int(&s.inflightLoads)
	c.Bool(&s.wpActive)
	hasWPStream := s.wpStream != nil
	c.Bool(&hasWPStream)
	c.U64(&s.wpBranchAge)
	c.U64(&s.fetchResume)
	c.U64(&s.fetchSalt)
	c.U64(&s.lastGenPC)
	c.U64(&s.lastWPPC)
	c.Rand(s.invRng)
	c.U64(&s.committed)
	c.U64(&s.lastCommitCycle)
	s.replayCounts.State(c)
	c.U64(&s.replaysWrongPath)
	c.U64(&s.loadRejections)
	c.U64(&s.forwards)
	c.U64(&s.wrongPathFetched)
	c.U64(&s.invInjected)
	c.U64(&s.mispredictRecoveries)
	c.U64(&s.sqSearches)
	c.U64(&s.sqSearchFiltered)

	// ROB struct-of-arrays, all slots. Dead slots are serialized too:
	// restore then reproduces the original arrays bit-for-bit, which keeps
	// the encoding canonical (decode→encode is the identity).
	c.Section("rob")
	for i := range s.robHot {
		h := &s.robHot[i]
		c.U64(&h.age)
		c.U64(&h.notBefore)
		c.U64(&h.compCycle)
		c.U64(&h.src1Prod)
		c.U64(&h.src2Prod)
		c.I32(&h.src1Idx)
		c.I32(&h.src2Idx)
		c.U32(&h.epoch)
		c.U8(&h.state)
		c.U8(&h.flags)
		c.U8((*uint8)(&h.op))
		switch {
		case h.state > stCompleted:
			c.Corrupt("slot %d state %d", i, h.state)
		case !h.op.Valid():
			c.Corrupt("slot %d op %d", i, uint8(h.op))
		case h.src1Idx < -1 || int(h.src1Idx) >= robSize || h.src2Idx < -1 || int(h.src2Idx) >= robSize:
			c.Corrupt("slot %d operand index out of range", i)
		}
	}
	for i := range s.robData {
		rd := &s.robData[i]
		instState(c, &rd.inst)
		predState(c, &rd.pred)
		c.U32(&rd.histCp)
		c.Bool(&rd.mispredicted)
		c.Bool(&rd.predicted)
	}
	for i := range s.memOps {
		op := &s.memOps[i]
		c.U64(&op.Age)
		c.Bool(&op.IsLoad)
		c.U64(&op.Addr)
		c.U8(&op.Size)
		c.Bool(&op.WrongPath)
		c.Bool(&op.Issued)
		c.U64(&op.IssueCycle)
		c.U64(&op.ResolveCycle)
		c.Bool(&op.SafeAtIssue)
		c.U64(&op.FwdSeq)
		c.Bool(&op.Unsafe)
		c.U64(&op.EndAge)
		c.U32(&op.HashKey)
		c.U8(&op.Bitmap)
	}

	// The sched section opens with a list count that is always 0 (no
	// entries follow), kept for the same byte stability as the header's
	// scheduler byte.
	c.Section("sched")
	var empty uint32
	c.U32(&empty)
	if empty != 0 {
		c.Corrupt("%d entries in a list that is always empty", empty)
	}
	for i := range s.readyBM {
		c.U64(&s.readyBM[i])
	}
	if c.Decoding() {
		s.readyCnt = 0
		for _, w := range s.readyBM {
			s.readyCnt += bits.OnesCount64(w)
		}
	}
	for _, arr := range [][]int32{s.consHead, s.consNext, s.consPrev, s.consOn} {
		for i := range arr {
			c.I32(&arr[i])
			if arr[i] < -1 || int(arr[i]) >= robSize {
				c.Corrupt("consumer link %d out of range", arr[i])
			}
		}
	}
	wheelEvs(c, &s.dataWait)
	for i := range s.wheel {
		wheelEvs(c, &s.wheel[i])
	}

	// Fetch and replay queues: live windows only, restored head-at-zero.
	c.Section("fetch")
	nf := c.Len(s.fetchQLen(), maxQueue)
	if c.Decoding() {
		s.fqHead = 0
		s.fetchQ = slices.Grow(s.fetchQ[:0], nf)[:nf]
		s.fetchQMeta = slices.Grow(s.fetchQMeta[:0], nf)[:nf]
	}
	for i := s.fqHead; i < len(s.fetchQ); i++ {
		instState(c, &s.fetchQ[i])
		m := &s.fetchQMeta[i]
		c.Bool(&m.wrongPath)
		predState(c, &m.pred)
		c.U32(&m.histCp)
		c.Bool(&m.mispred)
		c.Bool(&m.predicted)
	}
	nr := c.Len(len(s.replayQ)-s.rqHead, maxQueue)
	if c.Decoding() {
		s.rqHead = 0
		s.replayQ = slices.Grow(s.replayQ[:0], nr)[:nr]
		s.squashScratch = s.squashScratch[:0]
	}
	for i := s.rqHead; i < len(s.replayQ); i++ {
		instState(c, &s.replayQ[i])
	}

	c.Section("sq")
	checkpoint.List(c, &s.sq, maxQueue)
	for i := range s.sq {
		q := &s.sq[i]
		c.U64(&q.age)
		c.U64(&q.seq)
		c.U64(&q.addr)
		c.U8(&q.size)
		c.Bool(&q.addrResolved)
		c.Bool(&q.dataReady)
		switch q.size {
		case 1, 2, 4, 8:
		default:
			c.Corrupt("entry %d size %d", i, q.size)
		}
	}
	if c.Decoding() && c.Err() == nil {
		// The SQ index and the data-wait marks are derived from what was
		// just decoded; nothing encodes them.
		*s.sqIdx = sqIndexOf(s.sq)
		s.rebuildWaitMarks()
	}

	s.bp.State(c)
	s.mem.State(c)
	s.em.State(c)
	ws := s.wl.(CheckpointableWorkload).State(c)
	if c.Decoding() {
		// Rewire the wrong-path fetch source to the workload's restored
		// scratch stream. A stalled wrong path (BTB miss) has no stream.
		s.wpStream = nil
		if hasWPStream {
			s.wpStream = ws
			if ws == nil {
				c.Corrupt("wrong-path stream recorded but workload restored none")
			}
		}
	}
	s.pol.(lsq.Checkpointable).State(c, func(age uint64) *lsq.MemOp {
		if !s.live(age) {
			return nil
		}
		// A slot whose MemOp carries another age would re-encode that
		// age, so the blob would not be canonical.
		if op := s.memAt(s.idxOf(age)); op != nil && op.Age == age {
			return op
		}
		return nil
	})
}

// maxQueue bounds variable-length pipeline queues in a checkpoint; every
// real queue is orders of magnitude smaller, and Codec.Len further bounds
// each list by the remaining payload.
const maxQueue = 1 << 20

// wheelEvs visits a list of scheduled wakeup events.
func wheelEvs(c *checkpoint.Codec, evs *[]wheelEv) {
	checkpoint.List(c, evs, maxQueue)
	for i := range *evs {
		c.U64(&(*evs)[i].age)
		c.U32(&(*evs)[i].epoch)
	}
}

// instState visits one instruction.
func instState(c *checkpoint.Codec, in *isa.Inst) {
	c.U64(&in.Seq)
	c.U64(&in.PC)
	c.U8((*uint8)(&in.Op))
	c.I16(&in.Dest)
	c.I16(&in.Src1)
	c.I16(&in.Src2)
	c.U64(&in.Addr)
	c.U8(&in.Size)
	c.Bool(&in.Taken)
	c.U64(&in.Target)
	regOK := func(r int16) bool { return r == isa.RegNone || (r >= 0 && r < int16(isa.NumRegs)) }
	switch {
	case !in.Op.Valid():
		c.Corrupt("instruction op %d invalid", uint8(in.Op))
	case !regOK(in.Dest) || !regOK(in.Src1) || !regOK(in.Src2):
		c.Corrupt("instruction register out of range")
	}
}

// predState visits one branch prediction.
func predState(c *checkpoint.Codec, p *bpred.Prediction) {
	c.Bool(&p.Taken)
	c.U64(&p.Target)
	c.Bool(&p.BTBHit)
	c.Bool(&p.UsedGshr)
	c.Int(&p.GshareIdx)
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
