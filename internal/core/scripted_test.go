package core

import (
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/soundness"
	"dmdc/internal/trace"
)

// scriptedWorkload replays a fixed instruction sequence, then pads with
// independent ALU ops — letting tests pin exact microarchitectural
// behavior through the full pipeline.
type scriptedWorkload struct {
	insts []isa.Inst
	pos   int
	seq   uint64
	pc    uint64
}

func newScripted(insts []isa.Inst) *scriptedWorkload {
	w := &scriptedWorkload{insts: insts, pc: 0x40_0000}
	for i := range w.insts {
		w.insts[i].Seq = uint64(i)
		if w.insts[i].PC == 0 {
			w.insts[i].PC = w.pc + uint64(i)*4
		}
	}
	return w
}

func (w *scriptedWorkload) Next() isa.Inst {
	if w.pos < len(w.insts) {
		in := w.insts[w.pos]
		w.pos++
		w.seq = in.Seq + 1
		return in
	}
	// Padding: independent single-cycle ops.
	in := isa.Inst{
		Seq: w.seq, PC: w.pc + w.seq*4, Op: isa.OpIAlu,
		Dest: int16(8 + w.seq%8), Src1: 1, Src2: 2,
	}
	w.seq++
	return in
}

func (w *scriptedWorkload) WrongPath(uint64, bool, uint64) InstSource { return nil }
func (w *scriptedWorkload) EntryPC() uint64                           { return w.pc }
func (w *scriptedWorkload) Meta() WorkloadMeta {
	return WorkloadMeta{Name: "scripted", Class: trace.INT, Seed: 1}
}

// scriptedSim builds a config2 pipeline over the scripted sequence.
func scriptedSim(insts []isa.Inst, pol func(config.Machine, *energy.Model) lsq.Policy) *Sim {
	cfg := config.Config2()
	em := energy.NewModel(cfg.CoreSize())
	return MustSim(NewWithWorkload(cfg, newScripted(insts), pol(cfg, em), em))
}

func nop(dest int16) isa.Inst {
	return isa.Inst{Op: isa.OpIAlu, Dest: dest, Src1: 1, Src2: 2}
}

// A store whose address depends on a long-latency divide, followed by a
// ready load to the same address: the classic premature-load scenario. The
// baseline must detect it at store resolve; DMDC at load commit. Either
// way the machine must make progress and count exactly one true violation.
func violationScript() []isa.Inst {
	return []isa.Inst{
		// r8 <- div (slow producer for the store's address)
		{Op: isa.OpIDiv, Dest: 8, Src1: 1, Src2: 2},
		// store [0x10000100], address depends on the divide
		{Op: isa.OpStore, Dest: isa.RegNone, Src1: 8, Src2: 1, Addr: 0x1000_0100, Size: 8},
		// independent load to the same address: issues immediately,
		// before the store's address resolves
		{Op: isa.OpLoad, Dest: 9, Src1: 2, Src2: isa.RegNone, Addr: 0x1000_0100, Size: 8},
		nop(10), nop(11), nop(12),
	}
}

func TestScriptedViolationBaseline(t *testing.T) {
	s := scriptedSim(violationScript(), camFactory)
	r := s.MustRun(2000)
	if got := r.Stats.Get("core_replay_true_violation"); got != 1 {
		t.Errorf("true violations = %v, want exactly 1", got)
	}
	if r.Benchmark != "scripted" {
		t.Errorf("workload name lost: %q", r.Benchmark)
	}
}

func TestScriptedViolationDMDC(t *testing.T) {
	s := scriptedSim(violationScript(), dmdcFactory)
	r := s.MustRun(2000)
	if got := r.Stats.Get("core_replays_total"); got < 1 {
		t.Errorf("DMDC missed the scripted violation (replays = %v)", got)
	}
	if got := r.Stats.Get("unsafe_stores"); got < 1 {
		t.Errorf("the racing store was not classified unsafe (%v)", got)
	}
}

// A store and a subsequent same-address load whose address operand depends
// on the store's own address producer: the load cannot issue before the
// store resolves, so forwarding happens and no replay occurs.
func TestScriptedForwardingNoViolation(t *testing.T) {
	script := []isa.Inst{
		{Op: isa.OpIAlu, Dest: 8, Src1: 1, Src2: 2}, // address compute
		{Op: isa.OpStore, Dest: isa.RegNone, Src1: 8, Src2: 1, Addr: 0x1000_0200, Size: 8},
		{Op: isa.OpLoad, Dest: 9, Src1: 8, Src2: isa.RegNone, Addr: 0x1000_0200, Size: 8},
		nop(10), nop(11),
	}
	s := scriptedSim(script, camFactory)
	r := s.MustRun(1000)
	if got := r.Stats.Get("core_replays_total"); got != 0 {
		t.Errorf("replays = %v, want 0 (ordered same-address pair)", got)
	}
	if got := r.Stats.Get("forwards"); got != 1 {
		t.Errorf("forwards = %v, want exactly 1", got)
	}
}

// A load that needs bytes the in-flight store has not yet written (store
// data operand slow): the SQ must reject and retry, not forward garbage.
func TestScriptedRejectionOnSlowStoreData(t *testing.T) {
	script := []isa.Inst{
		{Op: isa.OpIDiv, Dest: 8, Src1: 1, Src2: 2}, // slow DATA producer
		// store: address ready (base reg), data from the divide
		{Op: isa.OpStore, Dest: isa.RegNone, Src1: 1, Src2: 8, Addr: 0x1000_0300, Size: 8},
		// load to the same address with a ready address operand
		{Op: isa.OpLoad, Dest: 9, Src1: 2, Src2: isa.RegNone, Addr: 0x1000_0300, Size: 8},
		nop(10), nop(11),
	}
	s := scriptedSim(script, camFactory)
	r := s.MustRun(1000)
	if got := r.Stats.Get("load_rejections"); got < 1 {
		t.Errorf("rejections = %v, want ≥ 1 (data-not-ready forwarding)", got)
	}
	if got := r.Stats.Get("core_replays_total"); got != 0 {
		t.Errorf("replays = %v, want 0 (rejection is not a violation)", got)
	}
}

// A partial match — the load needs more bytes than the store wrote — must
// also reject rather than forward.
func TestScriptedPartialMatchRejects(t *testing.T) {
	script := []isa.Inst{
		{Op: isa.OpIAlu, Dest: 8, Src1: 1, Src2: 2},
		{Op: isa.OpStore, Dest: isa.RegNone, Src1: 1, Src2: 8, Addr: 0x1000_0400, Size: 4},
		{Op: isa.OpLoad, Dest: 9, Src1: 8, Src2: isa.RegNone, Addr: 0x1000_0400, Size: 8},
		nop(10), nop(11),
	}
	s := scriptedSim(script, camFactory)
	r := s.MustRun(1000)
	if got := r.Stats.Get("load_rejections"); got < 1 {
		t.Errorf("rejections = %v, want ≥ 1 (partial match)", got)
	}
	if got := r.Stats.Get("forwards"); got != 0 {
		t.Errorf("forwards = %v, want 0 (cannot forward a partial match)", got)
	}
}

// Disjoint addresses: the racing pattern from violationScript but to a
// different quad word must NOT replay under the baseline (exact check).
func TestScriptedDisjointNoViolation(t *testing.T) {
	script := violationScript()
	script[2].Addr = 0x1000_0108 // next quad word
	s := scriptedSim(script, camFactory)
	r := s.MustRun(1000)
	if got := r.Stats.Get("core_replays_total"); got != 0 {
		t.Errorf("replays = %v, want 0 for disjoint addresses", got)
	}
}

// The safe-load mechanism: with no older stores in flight, a load is safe
// at issue and DMDC never checks it even inside a window.
func TestScriptedSafeLoadFlag(t *testing.T) {
	script := []isa.Inst{
		{Op: isa.OpLoad, Dest: 9, Src1: 1, Src2: isa.RegNone, Addr: 0x1000_0500, Size: 8},
		nop(10),
	}
	s := scriptedSim(script, dmdcFactory)
	s.MustRun(500)
	// Nothing to assert beyond absence of crashes and replays: with no
	// stores at all, no checking ever happens.
	if got := s.result().Stats.Get("windows"); got != 0 {
		t.Errorf("windows = %v, want 0", got)
	}
}

// lateBranchScript is a mispredicted taken branch whose condition hangs off
// a divide: resolution lands ~20 cycles in with younger work filling the
// window, so recovery squashes mid-flight instructions.
func lateBranchScript() []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpIDiv, Dest: 8, Src1: 1, Src2: 2},
		{Op: isa.OpBranch, Dest: isa.RegNone, Src1: 8, Src2: isa.RegNone, Taken: true, Target: 0x40_0100},
		{Op: isa.OpLoad, Dest: 9, Src1: 2, Src2: isa.RegNone, Addr: 0x1000_0100, Size: 8},
		{Op: isa.OpIAlu, Dest: 10, Src1: 9, Src2: 2},
		{Op: isa.OpStore, Dest: isa.RegNone, Src1: 1, Src2: 10, Addr: 0x1000_0108, Size: 8},
		nop(11), nop(12),
	}
}

// replayStormScript chains three premature-load triplets so store-resolve
// squashes fire back-to-back while younger triplets are mid-issue.
func replayStormScript() []isa.Inst {
	var script []isa.Inst
	for i := 0; i < 3; i++ {
		addr := uint64(0x1000_0200 + i*8)
		script = append(script,
			isa.Inst{Op: isa.OpIDiv, Dest: 8, Src1: 1, Src2: 2},
			isa.Inst{Op: isa.OpStore, Dest: isa.RegNone, Src1: 8, Src2: 1, Addr: addr, Size: 8},
			isa.Inst{Op: isa.OpLoad, Dest: int16(9 + i), Src1: 2, Src2: isa.RegNone, Addr: addr, Size: 8},
			nop(12), nop(13),
		)
	}
	return script
}

// TestScriptedSquashPointStress sweeps every squash source across cycle
// alignments: each scenario's script is shifted by 0..13 leading nops, so
// the squash lands at every offset relative to the issue stage's progress
// through the ready set. Every run executes with an every-cycle invariant
// sweep pinning the ready bitmap and consumer lists (a lost wakeup fails
// the run at the cycle it happens); the whole table also runs under
// `make race`.
func TestScriptedSquashPointStress(t *testing.T) {
	scenarios := []struct {
		name   string
		script func() []isa.Inst
		pol    func(config.Machine, *energy.Model) lsq.Policy
		opts   []Option
	}{
		{name: "mispredict", script: lateBranchScript, pol: camFactory},
		{name: "replay-storm-cam", script: replayStormScript, pol: camFactory},
		{name: "replay-storm-dmdc", script: replayStormScript, pol: dmdcFactory},
		{name: "spurious-fault", script: violationScript, pol: dmdcFactory,
			opts: []Option{WithFaults(soundness.FaultSpec{SpuriousEvery: 3})}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			for offset := 0; offset < 14; offset++ {
				script := make([]isa.Inst, 0, offset+16)
				for i := 0; i < offset; i++ {
					script = append(script, nop(int16(16+i%8)))
				}
				script = append(script, sc.script()...)
				cfg := config.Config2()
				em := energy.NewModel(cfg.CoreSize())
				opts := append([]Option{WithInvariantChecking(1)}, sc.opts...)
				s := MustSim(NewWithWorkload(cfg, newScripted(script), sc.pol(cfg, em), em, opts...))
				if _, err := s.Run(1500); err != nil {
					t.Fatalf("offset %d: %v", offset, err)
				}
			}
		})
	}
}
