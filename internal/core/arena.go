package core

import (
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
)

// wheelSlotCap is the event capacity preallocated for each wheel slot. The
// slots share one flat backing array carved with three-index slices, so a
// slot that overflows its carve reallocates alone without clobbering its
// neighbours; the grown slice sticks to the slot for the arena's lifetime.
// Eight events covers a full issue width of same-cycle completions.
const wheelSlotCap = 8

// An Arena owns every per-run hot backing array of a Sim — the ROB
// struct-of-arrays halves, the MemOp arena, the event wheel, and the
// scheduler and fetch queues. Passing one to NewWithWorkload via WithArena
// lets consecutive runs reuse the storage: the arrays are reset (lengths
// zeroed, capacities kept), never freed, so a warmed arena makes a run
// allocation-free on these structures.
//
// An Arena is exclusive to one live Sim at a time. Handing the same arena
// to a second Sim while the first may still step corrupts both; callers
// that run concurrently should draw arenas from a sync.Pool, as the
// package-level facade does.
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

	dataWait      []wheelEv
	sq            []sqEntry
	fetchQ        []isa.Inst
	fetchQMeta    []fetchMeta
	replayQ       []isa.Inst
	squashScratch []isa.Inst
}

// NewArena returns an empty arena; the first Sim built on it sizes the
// arrays for its machine configuration.
func NewArena() *Arena {
	return &Arena{}
}

// WithArena makes the Sim draw its hot per-run storage from a instead of
// allocating fresh arrays. See Arena for the exclusivity contract.
func WithArena(a *Arena) Option {
	return func(s *Sim) {
		s.arena = a
	}
}

// ensure sizes the fixed arrays for a ROB of robSize slots and resets
// every queue to empty. Stale contents are left in place: a Sim never
// reads a ROB slot or queue entry it has not (re)initialized this run, so
// reuse stays bit-identical to a fresh allocation — TestArenaReuseDeterminism
// pins that.
func (a *Arena) ensure(robSize int) {
	if cap(a.robHot) < robSize {
		// The three ROB halves are allocated together and only here, so one
		// capacity check covers all of them.
		a.robHot = make([]hotEntry, robSize)
		a.robData = make([]robData, robSize)
		a.memOps = make([]lsq.MemOp, robSize)
	}
	a.robHot = a.robHot[:robSize]
	a.robData = a.robData[:robSize]
	a.memOps = a.memOps[:robSize]
	words := (robSize + 63) / 64
	if cap(a.consOn) < robSize {
		a.readyBM = make([]uint64, words)
		a.consHead = make([]int32, robSize)
		a.consNext = make([]int32, robSize)
		a.consPrev = make([]int32, robSize)
		a.consOn = make([]int32, robSize)
	} else {
		a.readyBM = a.readyBM[:words]
		a.consHead = a.consHead[:robSize]
		a.consNext = a.consNext[:robSize]
		a.consPrev = a.consPrev[:robSize]
		a.consOn = a.consOn[:robSize]
	}
	// Unlike the ROB halves, the wakeup structures ARE reset between
	// runs: a stale ready bit or chain link from the previous run would
	// be read before the slot is re-initialized by insert.
	for i := range a.readyBM {
		a.readyBM[i] = 0
	}
	for i := range a.consHead {
		a.consHead[i] = -1
		a.consOn[i] = -1
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
}

// attach points the Sim's hot storage at the arena's arrays.
func (a *Arena) attach(s *Sim) {
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
