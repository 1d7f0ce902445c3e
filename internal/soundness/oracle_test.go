package soundness

import (
	"errors"
	"strings"
	"testing"

	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
)

// sliceSource replays a fixed instruction slice, padding with nops.
type sliceSource struct {
	insts []isa.Inst
	i     int
}

func (s *sliceSource) Next() isa.Inst {
	if s.i >= len(s.insts) {
		return isa.Inst{Op: isa.OpNop}
	}
	in := s.insts[s.i]
	s.i++
	return in
}

func store(seq, addr uint64, size uint8) isa.Inst {
	return isa.Inst{Seq: seq, PC: 0x1000 + seq*4, Op: isa.OpStore, Src1: 1, Src2: 2, Addr: addr, Size: size}
}

func load(seq, addr uint64, size uint8) isa.Inst {
	return isa.Inst{Seq: seq, PC: 0x1000 + seq*4, Op: isa.OpLoad, Dest: 3, Src1: 1, Addr: addr, Size: size}
}

func memOp(age, issueCycle, fwdSeq uint64) *lsq.MemOp {
	return &lsq.MemOp{Age: age, IsLoad: true, Issued: true, IssueCycle: issueCycle, FwdSeq: fwdSeq}
}

func TestOracleCleanStream(t *testing.T) {
	prog := []isa.Inst{
		store(1, 0x100, 8),
		load(2, 0x100, 8),
		store(3, 0x108, 4),
		load(4, 0x108, 4),
		load(5, 0x200, 8), // untouched memory: all-init is correct
	}
	o := NewOracle(&sliceSource{insts: prog}, nil)
	cycle := uint64(10)
	var age uint64 = 100
	for _, in := range prog {
		var op *lsq.MemOp
		if in.Op.IsLoad() {
			// Issue strictly after every older store committed.
			op = memOp(age, cycle, 0)
			o.LoadIssued(age, cycle)
		}
		if err := o.Commit(in, op, age, cycle); err != nil {
			t.Fatalf("clean commit of seq %d failed: %v", in.Seq, err)
		}
		age++
		cycle += 5
	}
	insts, loads := o.Checked()
	if insts != 5 || loads != 3 {
		t.Errorf("Checked() = (%d, %d), want (5, 3)", insts, loads)
	}
	if o.regWriter[3] != 5 {
		t.Errorf("last writer of r3 = %d, want 5", o.regWriter[3])
	}
}

func TestOracleStreamDivergence(t *testing.T) {
	prog := []isa.Inst{
		{Seq: 1, PC: 0x1000, Op: isa.OpIAlu, Dest: 4, Src1: 1, Src2: 2},
	}
	o := NewOracle(&sliceSource{insts: prog}, nil)
	wrong := prog[0]
	wrong.PC = 0x2000 // committed instruction differs from the reference
	err := o.Commit(wrong, nil, 7, 50)
	var serr *SoundnessError
	if !errors.As(err, &serr) {
		t.Fatalf("want *SoundnessError, got %v", err)
	}
	if serr.Kind != KindStreamDivergence {
		t.Errorf("Kind = %s, want %s", serr.Kind, KindStreamDivergence)
	}
	if serr.Age != 7 || serr.Cycle != 50 || serr.Commit != 0 {
		t.Errorf("context = age %d cycle %d commit %d", serr.Age, serr.Cycle, serr.Commit)
	}
}

func TestOracleCatchesStaleLoad(t *testing.T) {
	prog := []isa.Inst{
		store(1, 0x100, 8),
		load(2, 0x100, 8),
	}
	o := NewOracle(&sliceSource{insts: prog}, NewEventRing(8))
	o.ring.Record(Event{Cycle: 5, Kind: "IS", Age: 11, Inst: "2: load"})
	// The load issued at cycle 5, before the store drained at cycle 10:
	// it read the cache too early and nothing replayed it.
	o.LoadIssued(11, 5)
	if err := o.Commit(prog[0], nil, 10, 10); err != nil {
		t.Fatal(err)
	}
	err := o.Commit(prog[1], memOp(11, 5, 0), 11, 12)
	var serr *SoundnessError
	if !errors.As(err, &serr) {
		t.Fatalf("want *SoundnessError, got %v", err)
	}
	if serr.Kind != KindLoadValue {
		t.Errorf("Kind = %s, want %s", serr.Kind, KindLoadValue)
	}
	msg := err.Error()
	for _, want := range []string{"load-value", "[init init", "[s1 s1", "cache read at issue cycle 5", "pipeline events"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error missing %q:\n%s", want, msg)
		}
	}
}

func TestOracleForwardedLoad(t *testing.T) {
	prog := []isa.Inst{
		store(1, 0x100, 8),
		load(2, 0x100, 8),
		store(3, 0x300, 8),
		load(4, 0x300, 8),
	}
	o := NewOracle(&sliceSource{insts: prog}, nil)
	// Load 2 issued before store 1 drained but forwarded from it in the SQ:
	// observed bytes all carry seq 1, matching the architectural image.
	o.LoadIssued(11, 5)
	if err := o.Commit(prog[0], nil, 10, 10); err != nil {
		t.Fatal(err)
	}
	if err := o.Commit(prog[1], memOp(11, 5, 1), 11, 12); err != nil {
		t.Fatalf("correctly forwarded load flagged: %v", err)
	}
	// Load 4 claims forwarding from the wrong store: caught.
	o.LoadIssued(13, 20)
	if err := o.Commit(prog[2], nil, 12, 20); err != nil {
		t.Fatal(err)
	}
	err := o.Commit(prog[3], memOp(13, 20, 1), 13, 22)
	var serr *SoundnessError
	if !errors.As(err, &serr) || serr.Kind != KindLoadValue {
		t.Fatalf("mis-forwarded load not caught: %v", err)
	}
	if !strings.Contains(err.Error(), "forwarded from store seq 1") {
		t.Errorf("error should name the forwarding source:\n%v", err)
	}
}

func TestOracleUnissuedLoad(t *testing.T) {
	prog := []isa.Inst{load(1, 0x100, 8)}
	o := NewOracle(&sliceSource{insts: prog}, nil)
	err := o.Commit(prog[0], &lsq.MemOp{Age: 5, IsLoad: true}, 5, 10)
	var serr *SoundnessError
	if !errors.As(err, &serr) || serr.Kind != KindLoadValue {
		t.Fatalf("unissued load not caught: %v", err)
	}
	if err := o.Commit(prog[0], nil, 5, 10); err == nil {
		t.Fatal("nil MemOp for a load should fail")
	}
}

func TestOraclePartialOverlap(t *testing.T) {
	// A one-byte store into the middle of a quad word, then a full-width
	// load: the observed image must splice the byte identity over the base.
	prog := []isa.Inst{
		store(1, 0x100, 8),
		store(2, 0x103, 1),
		load(3, 0x100, 8),
		load(4, 0x103, 1),
	}
	o := NewOracle(&sliceSource{insts: prog}, nil)
	if err := o.Commit(prog[0], nil, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := o.Commit(prog[1], nil, 2, 20); err != nil {
		t.Fatal(err)
	}
	o.LoadIssued(3, 25)
	if err := o.Commit(prog[2], memOp(3, 25, 0), 3, 26); err != nil {
		t.Fatalf("spliced load flagged: %v", err)
	}
	// The narrow load forwarded from the narrow store is also fine.
	o.LoadIssued(4, 25)
	if err := o.Commit(prog[3], memOp(4, 25, 2), 4, 27); err != nil {
		t.Fatalf("narrow forwarded load flagged: %v", err)
	}
}

func TestOracleCompaction(t *testing.T) {
	// Many stores to one quad word force compaction; a late load must still
	// see the final image, and a pinned in-flight load must still see the
	// image at its own issue cycle.
	var prog []isa.Inst
	n := uint64(3 * compactThreshold)
	for seq := uint64(1); seq <= n; seq++ {
		prog = append(prog, store(seq, 0x100, 8))
	}
	prog = append(prog, load(n+1, 0x100, 8))
	o := NewOracle(&sliceSource{insts: prog}, nil)

	// Pin the horizon: an issued in-flight load from cycle 10 forces recs
	// with commitCycle > 10 to stay un-folded until it retires.
	o.LoadIssued(999, 10)
	for i := uint64(0); i < n; i++ {
		if err := o.Commit(prog[i], nil, i+1, 10*(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	st := o.mem[isa.QuadWord(0x100)]
	if len(st.recs) < compactThreshold {
		t.Fatalf("pinned horizon should have prevented folding, recs=%d", len(st.recs))
	}
	// The pinned load observes only the first store (committed at cycle 10).
	got := o.bytesAt(st, 0, 8, 10)
	for _, b := range got {
		if b != 1 {
			t.Fatalf("pinned view = %v, want all s1", got)
		}
	}
	// Retire the pin; the next commit compacts and the final load is clean.
	o.Squashed(999)
	cycle := 10 * (n + 1)
	o.LoadIssued(n+1, cycle)
	if err := o.Commit(prog[n], memOp(n+1, cycle, 0), n+1, cycle+1); err != nil {
		t.Fatalf("post-compaction load flagged: %v", err)
	}
	if len(st.recs) > compactThreshold {
		t.Errorf("compaction did not shrink recs: %d", len(st.recs))
	}
}

func TestOracleSquashDropsInflight(t *testing.T) {
	o := NewOracle(&sliceSource{}, nil)
	o.LoadIssued(10, 100)
	o.LoadIssued(20, 200)
	o.LoadIssued(30, 300)
	o.Squashed(20)
	if _, ok := o.inflight[10]; !ok {
		t.Error("older in-flight load dropped by squash")
	}
	for _, age := range []uint64{20, 30} {
		if _, ok := o.inflight[age]; ok {
			t.Errorf("squashed in-flight load age %d survived", age)
		}
	}
}

func TestUnsoundWrapperSuppresses(t *testing.T) {
	inner := lsq.Must(lsq.NewCAM(lsq.CAMConfig{LQSize: 8}, new(energy.Model)))
	u := NewUnsound(inner)
	if u.Name() != "unsound(cam)" {
		t.Errorf("Name() = %q", u.Name())
	}
	op := &lsq.MemOp{Age: 1, IsLoad: true, Addr: 0x100, Size: 8, Issued: true, SafeAtIssue: false, Unsafe: true}
	u.LoadDispatch(op)
	// Whatever the inner policy demands, the wrapper returns nil.
	if r := u.LoadCommit(op); r != nil {
		t.Errorf("unsound wrapper leaked a replay: %+v", r)
	}
}
