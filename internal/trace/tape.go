package trace

import (
	"slices"

	"dmdc/internal/isa"
)

// A Tape is a profile's committed path recorded once so that many
// simulations can replay it instead of generating it again. Per
// instruction it keeps only what the generator's random draws decide, in
// 16 bytes: the address, the three registers, the access size after an
// alias narrowed it, the branch direction, and which sequential stream
// the access advanced. Everything else (PC, op, static size, target,
// sequence number) is a function of the position in the static CFG, which
// a replay walks anyway. After the last instruction the tape holds the
// generator's committed-path state, so a replay that reads past the end
// continues with live generation exactly where the recording stopped.
//
// A recorded Tape is immutable: any number of TapeReaders, on any number
// of goroutines, may replay it at once. Record rewrites it in place; it
// must not run while a reader is still replaying the tape.
type Tape struct {
	prof Profile
	recs []tapeRec
	// end is the generator that made the recording, left where it
	// stopped; a reader that runs out of records copies its committed-path
	// state.
	end Generator
}

// tapeRec is one recorded instruction.
type tapeRec struct {
	addr             uint64
	dest, src1, src2 int16
	size             uint8
	// flags holds recTaken and, above recStreamShift, one more than the
	// index of the sequential stream the access advanced (0: none).
	flags uint8
}

const (
	recTaken       = 1
	recStreamShift = 1
)

// Record makes t a recording of the first n committed-path instructions of
// p, reusing t's storage: a tape recorded again for a profile no larger
// than before allocates nothing.
func (t *Tape) Record(p Profile, n int) {
	g := &t.end
	g.Reset(p)
	t.prof = p
	t.recs = slices.Grow(t.recs[:0], n)[:n]
	var in isa.Inst
	for i := range t.recs {
		// A sequential access moves the stream cursor to its stream and
		// advances that stream's pointer, which never stays put.
		stream, ptr := g.lastStream, g.seqPtrs[g.lastStream]
		g.next(&in)
		rec := tapeRec{addr: in.Addr, dest: in.Dest, src1: in.Src1, src2: in.Src2, size: in.Size}
		if in.Taken {
			rec.flags = recTaken
		}
		if g.lastStream != stream || g.seqPtrs[stream] != ptr {
			rec.flags |= uint8(g.lastStream+1) << recStreamShift
		}
		t.recs[i] = rec
	}
}

// Profile returns the profile the tape was recorded from.
func (t *Tape) Profile() Profile { return t.prof }

// TapeReader replays a Tape through a generator built for the tape's
// profile. The generator walks the static CFG and keeps exactly the state
// wrong-path streams read current — each site's pattern machine and the
// sequential stream pointers — so WrongPath works on it unchanged. Past
// the last record the reader hands the generator the tape's end state and
// generates live from there. A TapeReader is not safe for concurrent use,
// and its generator cannot be checkpointed while it replays.
type TapeReader struct {
	g    *Generator
	recs []tapeRec // the records not yet replayed
	end  *Generator
}

// Reset resets g for t's profile and points r at the start of t, replaying
// through g.
func (r *TapeReader) Reset(g *Generator, t *Tape) {
	g.Reset(t.prof)
	*r = TapeReader{g: g, recs: t.recs, end: &t.end}
}

// NextBatch fills dst with the next committed-path instructions and
// returns how many were written. Like Generator.NextBatch it stops after
// a branch; it also stops at the end of the tape.
func (r *TapeReader) NextBatch(dst []isa.Inst) int {
	if len(r.recs) == 0 {
		if r.end != nil {
			r.g.continueFrom(r.end)
			r.end = nil
		}
		return r.g.NextBatch(dst)
	}
	g := r.g
	recs := r.recs
	if len(recs) > len(dst) {
		recs = recs[:len(dst)]
	}
	b := &g.blocks[g.cur]
	for i := range recs {
		rec, in := &recs[i], &dst[i]
		if g.slot >= len(b.ops) {
			taken := rec.flags&recTaken != 0
			b.site.replay(taken)
			*in = isa.Inst{
				Seq:    g.seq,
				PC:     b.branchPC(),
				Op:     isa.OpBranch,
				Dest:   rec.dest,
				Src1:   rec.src1,
				Src2:   rec.src2,
				Taken:  taken,
				Target: g.blocks[b.taken].pc,
			}
			g.seq++
			if taken {
				g.cur = b.taken
			} else {
				g.cur = b.fallthru
			}
			g.slot = 0
			r.recs = r.recs[i+1:]
			return i + 1
		}
		*in = isa.Inst{
			Seq:  g.seq,
			PC:   b.pc + uint64(g.slot)*4,
			Op:   b.ops[g.slot],
			Dest: rec.dest,
			Src1: rec.src1,
			Src2: rec.src2,
			Addr: rec.addr,
			Size: rec.size,
		}
		if s := rec.flags >> recStreamShift; s != 0 {
			g.stepStream(int(s - 1))
		}
		g.seq++
		g.slot++
	}
	r.recs = r.recs[len(recs):]
	return len(recs)
}

// Next returns the next committed-path instruction.
func (r *TapeReader) Next() isa.Inst {
	var in [1]isa.Inst
	r.NextBatch(in[:])
	return in[0]
}

// continueFrom copies src's committed-path state into g, a generator for
// the same profile: the RNG, the CFG position, every site's pattern
// machine, the register rings and cursors, the stream pointers and the
// store ring. Nothing is allocated, and the wrong-path state stays as it
// was.
func (g *Generator) continueFrom(src *Generator) {
	*g.rng = *src.rng
	g.seq, g.cur, g.slot = src.seq, src.cur, src.slot
	for i := range g.blocks {
		g.blocks[i].site.counter = src.blocks[i].site.counter
	}
	g.destRing, g.destRingLen = src.destRing, src.destRingLen
	g.aluRing, g.aluRingLen = src.aluRing, src.aluRingLen
	g.loadRing, g.loadRingLen = src.loadRing, src.loadRingLen
	g.fpRing, g.fpRingLen = src.fpRing, src.fpRingLen
	g.nextIntDest, g.nextFPDest, g.lastLoadDest = src.nextIntDest, src.nextFPDest, src.lastLoadDest
	g.baseRegTimer = src.baseRegTimer
	copy(g.seqPtrs, src.seqPtrs)
	g.lastStream = src.lastStream
	g.storeRing, g.storeHead = src.storeRing, src.storeHead
	g.lastLoadAddr = src.lastLoadAddr
}
