package core

import (
	"dmdc/internal/isa"
	"dmdc/internal/trace"
)

// A Sim whose committed path comes from core's own generator (New without
// WithTape, or NewWithWorkload over FromGenerator) streams it (DESIGN.md
// §8): while RunContext runs, a producer on a helper goroutine generates
// the path ahead of the pipeline into blocks of tape records, and the
// pipeline replays them through the Sim's generator as a TapeReader
// replays a tape, at a fraction of generation's cost. Each block starts
// with a snapshot of the producer's generator, so the pipeline can stop
// part way through one and regenerate its own state (settle) before a
// checkpoint or a fast-forward reads it.
//
// The first block after the stream starts from the Sim's generator is
// short, so a short run waits for little; later ones amortize the
// handoff, a channel operation and, when a side has waited, a goroutine
// wakeup. Four blocks let the producer, ~7× faster than the pipeline,
// stay a few thousand instructions ahead.
const (
	streamFirst = 64   // records in the first block after a start from the Sim's generator
	streamBlock = 1024 // records in every later block
	streamRing  = 4    // blocks in the ring: free, being recorded, full or being replayed
)

// stream is the streamed committed path of one Sim. It lives in the
// Sim's arena, which keeps the producer's generator, the blocks and their
// snapshots for the next Sim. A block is always in exactly one place: the
// free channel, the producer's hands, the full channel or cur.
type stream struct {
	g    *trace.Generator // the Sim's generator, which replays
	src  trace.Generator  // the producer's generator, ahead of g
	ring [streamRing]trace.Block
	free chan *trace.Block
	full chan *trace.Block // recorded blocks in path order

	// The pipeline's side. synced is false until the stream first starts
	// and again after a settle: the producer then starts over from g.
	cur    *trace.Block // the block being replayed, nil if none
	pos    int          // records of cur replayed
	synced bool
	used   uint64 // records replayed since the stream last synced

	// The producer's side: made counts the records recorded since the
	// stream last synced, and the producer stops when it reaches limit.
	// The pipeline reads made, and writes limit, only while no producer
	// runs.
	made, limit uint64
	producer    helper
}

// reset points the stream at g, the Sim's generator, with every block
// free and nothing recorded. The producer's generator and the blocks'
// snapshots are reset for g's profile when they are next used.
func (st *stream) reset(g *trace.Generator) {
	if st.free == nil {
		// free and full each have room for every block of the ring, so no
		// send on either blocks.
		st.free = make(chan *trace.Block, streamRing)
		st.full = make(chan *trace.Block, streamRing)
	}
	st.g = g
	st.drop()
}

// drop frees every block — one a panicking producer kept too, as the
// free list is rebuilt from the ring — and leaves the stream unsynced.
// No producer may run.
func (st *stream) drop() {
	for len(st.free) > 0 {
		<-st.free
	}
	for len(st.full) > 0 {
		<-st.full
	}
	for i := range st.ring {
		st.free <- &st.ring[i]
	}
	st.cur, st.pos, st.synced = nil, 0, false
}

// start starts the producer, to record at most n records past what the
// pipeline has drawn; records a run leaves buffered are replayed by the
// next one.
func (st *stream) start(n uint64) {
	if !st.synced {
		st.src.Follow(st.g)
		st.synced, st.used, st.made, st.limit = true, 0, 0, 0
	}
	st.limit = max(st.limit, st.used+n)
	st.producer.start(st.produce)
}

// produce records blocks until it reaches the limit or is stopped. It
// stops only between blocks, so every block it takes it also hands on.
func (st *stream) produce(stop <-chan struct{}) {
	for st.made < st.limit {
		var b *trace.Block
		select {
		case b = <-st.free:
		case <-stop:
			return
		}
		n := uint64(streamBlock)
		if st.made == 0 {
			n = streamFirst
		}
		n = min(n, st.limit-st.made)
		b.Record(&st.src, int(n))
		st.made += n
		st.full <- b
	}
}

// NextBatch replays the next committed-path instructions into dst. Like
// any Batcher it stops after a branch, and it also stops at the end of a
// block. The Sim's generator only replays, so its RNG and the other state
// generation alone advances stand where they stood when the stream
// synced; only the producer's generator runs past branches. Stepped
// outside RunContext, with no producer running, it settles and generates
// live.
func (st *stream) NextBatch(dst []isa.Inst) int {
	if st.cur == nil || st.pos == st.cur.Len() {
		if !st.producer.running() {
			st.settle()
			return st.g.NextBatch(dst)
		}
		next := st.next()
		if st.cur != nil {
			st.free <- st.cur
		}
		st.cur, st.pos = next, 0
	}
	n := st.cur.Replay(st.g, dst, st.pos)
	st.pos += n
	st.used += uint64(n)
	return n
}

// next waits for the producer's next block; it blocks rather than spins,
// so with one P the producer runs meanwhile. A producer that stopped at
// its limit while the pipeline wants more is restarted a block further
// on (no run draws that far, TestFetchAheadBounds, but the stream does
// not rely on it); one that panicked has its panic re-raised here.
func (st *stream) next() *trace.Block {
	for {
		select {
		case b := <-st.full:
			return b
		case <-st.producer.done:
		}
		// The producer has finished; it may have handed on a last block.
		select {
		case b := <-st.full:
			return b
		default:
		}
		st.producer.join()
		st.limit += streamBlock
		st.producer.start(st.produce)
	}
}

// settle makes the Sim's generator live again: it stops the producer,
// regenerates the generator's state from the snapshot of the block being
// replayed, and drops every record not yet replayed. A nil or unsynced
// stream is live already.
func (st *stream) settle() {
	if st == nil || !st.synced {
		return
	}
	st.producer.join()
	if st.cur != nil {
		st.cur.Settle(st.g, st.pos)
	}
	st.drop()
}
