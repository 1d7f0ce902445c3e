package core

import (
	"sync"

	"dmdc/internal/bpred"
	"dmdc/internal/cache"
	"dmdc/internal/config"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/trace"
	"dmdc/internal/xrand"
)

// wheelSlotCap is the event capacity preallocated for each wheel slot. The
// slots share one flat backing array carved with three-index slices, so a
// slot that overflows its carve reallocates alone without clobbering its
// neighbours; the grown slice sticks to the slot for the arena's lifetime.
// Eight events covers a full issue width of same-cycle completions.
const wheelSlotCap = 8

// An Arena owns every per-run table a Sim builds. The hot backing arrays
// are the ROB struct-of-arrays halves, the MemOp arena, the event wheel,
// the scheduler and fetch queues, and the store queue with its search
// index and the data-wait list's producer marks; the state tables are
// the cache hierarchy, the branch predictor, the invalidation RNG, for a
// Sim built by New the trace generator with its committed-path and
// wrong-path RNGs, and for a Sim that streams its committed path the
// producer's generator and the ring of recorded blocks with their
// snapshots. Passing one to New or NewWithWorkload via WithArena lets
// consecutive runs reuse the storage: arrays are reset (zeroed or
// emptied, capacities kept) and tables rebuilt in place through the
// Reset paths their constructors use, never freed, so a warmed arena
// makes a run allocation-free on all of them and bit-identical,
// checkpoint bytes included, to one on fresh allocations.
//
// An Arena is exclusive to one live Sim at a time. Handing the same arena
// to a second Sim while the first may still step corrupts both. Callers
// that run concurrently draw arenas from the one process-wide pool
// (PooledArena, Release): dmdc.Run, the experiment suite's and dmdcd's
// cells, and a sampled run's functional pass and restored intervals all
// do, so every in-process run reuses storage a finished run left behind.
type Arena struct {
	robHot  []hotEntry
	robData []robData
	memOps  []lsq.MemOp
	wheel   [][]wheelEv

	// Event-wakeup state (see wakeup.go): the ready bitmap and the
	// intrusive consumer lists, all slot-indexed alongside robHot.
	readyBM  []uint64
	consHead []int32
	consNext []int32
	consPrev []int32
	consOn   []int32

	// Store-side state (see exec.go): the slot-indexed producer marks of
	// the data-wait list and the store queue's search index.
	dwMark []bool
	sqIdx  sqIndex

	dataWait      []wheelEv
	sq            []sqEntry
	fetchQ        []isa.Inst
	fetchQMeta    []fetchMeta
	replayQ       []isa.Inst
	squashScratch []isa.Inst

	// State tables: ensure rebuilds mem, bp and invRng; New rebuilds gen,
	// and tape when the Sim replays a trace.Tape (WithTape); a Sim that
	// streams its committed path resets stream, whose producer's
	// generator and block snapshots follow the Sim's generator when the
	// stream starts.
	mem    cache.Hierarchy
	bp     bpred.Predictor
	invRng xrand.Rand
	gen    trace.Generator
	tape   trace.TapeReader
	stream stream
}

// NewArena returns an empty arena; the first Sim built on it sizes the
// arrays and tables for its machine configuration and profile.
func NewArena() *Arena {
	return &Arena{}
}

// arenaPool recycles arenas across every in-process run. Each Get hands an
// arena to exactly one Sim at a time, which satisfies the exclusivity
// contract even when runs are concurrent.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// PooledArena takes an arena from the process-wide pool. Release it once
// the Sim built on it will not step again. A Result never references
// arena memory, so releasing before the caller reads the Result is safe.
func PooledArena() *Arena { return arenaPool.Get().(*Arena) }

// Release returns a to the pool for the next run. It drops a's reader of
// the tape the run replayed, so a pooled arena keeps no tape alive.
func (a *Arena) Release() {
	a.tape = trace.TapeReader{}
	arenaPool.Put(a)
}

// WithArena makes the Sim draw its per-run storage and tables from a
// instead of allocating fresh ones. See Arena for the exclusivity contract.
func WithArena(a *Arena) Option {
	return func(s *Sim) {
		s.arena = a
	}
}

// ensure sizes the fixed arrays for cfg's ROB, resets every queue to
// empty, and rebuilds the cache hierarchy and predictor for cfg and the
// invalidation RNG from invSeed. A reused arena hands out exactly what a
// fresh one holds: the ROB halves, the ready bitmap, the wakeup links and
// the producer marks zeroed, every consumer list empty, the SQ index
// empty. The pipeline never reads a dead slot, but a checkpoint encodes
// all of them, so a stale one would leak into its bytes; a stale mark or
// count would change when the pipeline walks, and a stale position what
// a load finds. TestArenaPoisonedReuse pins the rule.
func (a *Arena) ensure(cfg config.Machine, invSeed int64) error {
	if err := a.mem.Reset(cfg.Memory); err != nil {
		return err
	}
	a.bp.Reset(cfg.BPred)
	a.invRng.Seed(invSeed)
	robSize := cfg.ROBSize
	words := (robSize + 63) / 64
	if cap(a.robHot) < robSize {
		// The ROB halves and the wakeup arrays are allocated together and
		// only here, so one capacity check covers all of them.
		a.robHot = make([]hotEntry, robSize)
		a.robData = make([]robData, robSize)
		a.memOps = make([]lsq.MemOp, robSize)
		a.readyBM = make([]uint64, words)
		a.consHead = make([]int32, robSize)
		a.consNext = make([]int32, robSize)
		a.consPrev = make([]int32, robSize)
		a.consOn = make([]int32, robSize)
		a.dwMark = make([]bool, robSize)
	}
	a.robHot = zeroed(a.robHot, robSize)
	a.robData = zeroed(a.robData, robSize)
	a.memOps = zeroed(a.memOps, robSize)
	a.readyBM = zeroed(a.readyBM, words)
	a.consNext = zeroed(a.consNext, robSize)
	a.consPrev = zeroed(a.consPrev, robSize)
	a.dwMark = zeroed(a.dwMark, robSize)
	a.sqIdx = sqIndex{}
	a.consHead = a.consHead[:robSize]
	a.consOn = a.consOn[:robSize]
	for i := range a.consHead {
		a.consHead[i] = -1 // no consumers parked on this producer
		a.consOn[i] = -1   // this slot is parked on no producer
	}
	if a.wheel == nil {
		a.wheel = make([][]wheelEv, wheelSize)
		backing := make([]wheelEv, wheelSize*wheelSlotCap)
		for i := range a.wheel {
			a.wheel[i] = backing[i*wheelSlotCap : i*wheelSlotCap : (i+1)*wheelSlotCap]
		}
	} else {
		for i := range a.wheel {
			a.wheel[i] = a.wheel[i][:0]
		}
	}
	a.dataWait = a.dataWait[:0]
	a.sq = a.sq[:0]
	a.fetchQ = a.fetchQ[:0]
	a.fetchQMeta = a.fetchQMeta[:0]
	a.replayQ = a.replayQ[:0]
	a.squashScratch = a.squashScratch[:0]
	return nil
}

// zeroed returns s resliced to n elements, every one zero.
func zeroed[T any](s []T, n int) []T {
	s = s[:n]
	clear(s)
	return s
}

// attach points the Sim's hot storage and tables at the arena's.
func (a *Arena) attach(s *Sim) {
	s.mem = &a.mem
	s.bp = &a.bp
	s.invRng = &a.invRng
	s.robHot = a.robHot
	s.robData = a.robData
	s.memOps = a.memOps
	s.wheel = a.wheel
	s.readyBM = a.readyBM
	s.consHead = a.consHead
	s.consNext = a.consNext
	s.consPrev = a.consPrev
	s.consOn = a.consOn
	s.readyCnt = 0
	s.dwMark = a.dwMark
	s.sqIdx = &a.sqIdx
	s.dataWait = a.dataWait
	s.sq = a.sq
	s.fetchQ = a.fetchQ
	s.fetchQMeta = a.fetchQMeta
	s.replayQ = a.replayQ
	s.squashScratch = a.squashScratch
}

// reclaim copies the queue slice headers back from the Sim: appends may
// have regrown their backing arrays, and the arena must keep the grown
// versions for the next run. The fixed-length arrays (ROB halves, the
// wheel's outer array) are shared with the Sim and need no write-back.
func (a *Arena) reclaim(s *Sim) {
	a.dataWait = s.dataWait
	a.sq = s.sq
	a.fetchQ = s.fetchQ
	a.fetchQMeta = s.fetchQMeta
	a.replayQ = s.replayQ
	a.squashScratch = s.squashScratch
}
