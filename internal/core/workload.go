package core

import (
	"dmdc/internal/isa"
	"dmdc/internal/trace"
)

// InstSource yields a stream of instructions.
type InstSource interface {
	Next() isa.Inst
}

// WorkloadMeta describes a workload to the simulator: identity for
// reports, and the data region that external invalidations target.
type WorkloadMeta struct {
	Name     string
	Class    trace.Class
	InvBase  uint64 // base of the region invalidations are drawn from
	InvBytes uint64 // region size (0 disables injection)
	Seed     int64  // seeds the invalidation-injection RNG
}

// Workload abstracts the instruction supply so the pipeline can run the
// built-in synthetic generator, a recorded trace file, or a hand-written
// stream in tests. WrongPath may return nil when the workload cannot
// synthesize wrong-path instructions; the front end then stalls until the
// mispredicted branch resolves, exactly as it does after a BTB miss.
type Workload interface {
	// Next returns the next committed-path instruction.
	Next() isa.Inst
	// WrongPath returns a stream of plausible wrong-path instructions for
	// the mispredicted branch at branchPC, or nil if unavailable.
	WrongPath(branchPC uint64, taken bool, salt uint64) InstSource
	// EntryPC is the address of the first instruction (I-cache warming).
	EntryPC() uint64
	// Meta describes the workload.
	Meta() WorkloadMeta
}

// Batcher is an optional Workload refinement. NextBatch fills dst with
// consecutive committed-path instructions and returns how many were
// written (at least 1 for a non-empty dst). Implementations MUST stop
// after emitting a branch: wrong-path streams read the workload's
// internal register/address state lazily, so generating past a branch
// that may mispredict would let that state run ahead of the machine and
// change the wrong-path instruction content.
type Batcher interface {
	NextBatch(dst []isa.Inst) int
}

// generatorView answers what a generator-backed workload reads from the
// generator itself rather than from its committed path: wrong-path
// streams, the entry PC and the metadata.
type generatorView struct {
	g *trace.Generator
}

func (w generatorView) WrongPath(branchPC uint64, taken bool, salt uint64) InstSource {
	ws := w.g.WrongPath(branchPC, taken, salt)
	if ws == nil {
		return nil // avoid a typed-nil interface
	}
	return ws
}

func (w generatorView) EntryPC() uint64 { return w.g.EntryPC() }

func (w generatorView) Meta() WorkloadMeta {
	p := w.g.Profile()
	return WorkloadMeta{
		Name:     p.Name,
		Class:    p.Class,
		InvBase:  0x1000_0000,
		InvBytes: uint64(p.WorkingSetKB) * 1024,
		Seed:     p.Seed,
	}
}

// generatorWorkload adapts trace.Generator to the Workload interface.
type generatorWorkload struct {
	generatorView
}

// FromGenerator wraps the synthetic benchmark generator as a Workload.
// The front end follows at most one wrong path at a time, so the wrapped
// generator is switched to its reused wrong-path stream (one 5KB rand
// state per misprediction otherwise dominates the simulator's allocation
// profile; the instruction sequences are identical either way).
func FromGenerator(g *trace.Generator) Workload {
	g.EnableWrongPathReuse()
	return generatorWorkload{generatorView{g: g}}
}

func (w generatorWorkload) Next() isa.Inst { return w.g.Next() }

func (w generatorWorkload) NextBatch(dst []isa.Inst) int { return w.g.NextBatch(dst) }

// tapeWorkload reads the committed path from a trace.TapeReader and the
// rest from the generator it replays through. It is not a
// CheckpointableWorkload: a replaying generator's RNG is not where its
// stream stands, so its state cannot be saved.
type tapeWorkload struct {
	generatorView
	r *trace.TapeReader
}

func (w tapeWorkload) Next() isa.Inst { return w.r.Next() }

func (w tapeWorkload) NextBatch(dst []isa.Inst) int { return w.r.NextBatch(dst) }
