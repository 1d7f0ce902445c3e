package lsq

import (
	"errors"
	"testing"

	"dmdc/internal/energy"
	"dmdc/internal/stats"
)

func newLoad(age, addr uint64, size uint8) *MemOp {
	return &MemOp{Age: age, IsLoad: true, Addr: addr, Size: size}
}

func newStore(age, addr uint64, size uint8) *MemOp {
	return &MemOp{Age: age, Addr: addr, Size: size}
}

func issueLoad(p Policy, op *MemOp, cycle uint64) {
	p.LoadDispatch(op)
	op.Issued = true
	op.IssueCycle = cycle
	p.LoadIssue(op)
}

func TestCAMDetectsViolation(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16}, new(energy.Model)))
	// A younger load issues to 0x100 before the older store resolves.
	ld := newLoad(10, 0x100, 8)
	issueLoad(c, ld, 5)
	st := newStore(3, 0x100, 8)
	st.ResolveCycle = 9
	r := c.StoreResolve(st)
	if r == nil {
		t.Fatal("violation not detected")
	}
	if r.FromAge != 10 {
		t.Errorf("replay from age %d, want 10", r.FromAge)
	}
	if r.Cause != CauseTrue {
		t.Errorf("cause = %v, want true_violation", r.Cause)
	}
}

func TestCAMNoViolationDifferentAddr(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16}, new(energy.Model)))
	issueLoad(c, newLoad(10, 0x200, 8), 5)
	if r := c.StoreResolve(newStore(3, 0x100, 8)); r != nil {
		t.Error("false violation on disjoint addresses")
	}
}

func TestCAMNoViolationOlderLoad(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16}, new(energy.Model)))
	issueLoad(c, newLoad(2, 0x100, 8), 5)
	if r := c.StoreResolve(newStore(3, 0x100, 8)); r != nil {
		t.Error("older load flagged as violation")
	}
}

func TestCAMUnissuedLoadIgnored(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16}, new(energy.Model)))
	ld := newLoad(10, 0x100, 8)
	c.LoadDispatch(ld) // in LQ but not issued
	if r := c.StoreResolve(newStore(3, 0x100, 8)); r != nil {
		t.Error("unissued load flagged as violation")
	}
}

func TestCAMWrongPathLoadIgnored(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16}, new(energy.Model)))
	ld := newLoad(10, 0x100, 8)
	ld.WrongPath = true
	issueLoad(c, ld, 5)
	if r := c.StoreResolve(newStore(3, 0x100, 8)); r != nil {
		t.Error("wrong-path load triggered replay")
	}
}

func TestCAMOldestViolatorChosen(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16}, new(energy.Model)))
	issueLoad(c, newLoad(20, 0x100, 8), 5)
	issueLoad(c, newLoad(12, 0x104, 4), 6)
	r := c.StoreResolve(newStore(3, 0x100, 8))
	if r == nil || r.FromAge != 12 {
		t.Fatalf("expected replay from oldest violator 12, got %+v", r)
	}
}

func TestCAMPartialOverlapDetected(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16}, new(energy.Model)))
	issueLoad(c, newLoad(10, 0x104, 4), 5)
	if r := c.StoreResolve(newStore(3, 0x100, 8)); r == nil {
		t.Error("partial overlap not detected")
	}
}

func TestCAMSquashRemovesLoads(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16}, new(energy.Model)))
	issueLoad(c, newLoad(10, 0x100, 8), 5)
	issueLoad(c, newLoad(11, 0x108, 8), 6)
	c.Squash(10)
	if r := c.StoreResolve(newStore(3, 0x100, 8)); r != nil {
		t.Error("squashed load still triggers violation")
	}
}

func TestCAMCommitRemovesLoads(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16}, new(energy.Model)))
	ld := newLoad(10, 0x100, 8)
	issueLoad(c, ld, 5)
	if r := c.LoadCommit(ld); r != nil {
		t.Fatal("conventional LQ must not replay at commit")
	}
	if r := c.StoreResolve(newStore(3, 0x100, 8)); r != nil {
		t.Error("committed load still triggers violation")
	}
}

func TestCAMCapacity(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 48}, new(energy.Model)))
	if c.LoadCapacity() != 48 {
		t.Errorf("capacity = %d", c.LoadCapacity())
	}
}

func TestCAMYLAFiltering(t *testing.T) {
	em := energy.NewModel(0)
	c := Must(NewCAM(CAMConfig{LQSize: 16, Filter: FilterYLA, YLARegs: 8}, em))
	// Store younger than every issued load: filtered, no LQ search energy.
	issueLoad(c, newLoad(5, 0x100, 8), 2)
	before := em.Snapshot().Of(energy.CompLQ)
	if r := c.StoreResolve(newStore(9, 0x200, 8)); r != nil {
		t.Fatal("unexpected replay")
	}
	if em.Snapshot().Of(energy.CompLQ) != before {
		t.Error("filtered store still paid for an LQ search")
	}
	s := stats.NewSet()
	c.Report(s)
	if s.Get("lq_searches_filtered") != 1 {
		t.Errorf("filtered = %v, want 1", s.Get("lq_searches_filtered"))
	}
	// Unsafe store still searches and detects.
	if r := c.StoreResolve(newStore(3, 0x100, 8)); r == nil {
		t.Error("YLA-filtered CAM missed a real violation")
	}
	if em.Snapshot().Of(energy.CompLQ) <= before {
		t.Error("unfiltered search should cost LQ energy")
	}
}

func TestCAMYLARecoverClamp(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16, Filter: FilterYLA, YLARegs: 1}, new(energy.Model)))
	// A wrong-path-ish young load pollutes YLA, then recovery clamps it.
	ld := newLoad(100, 0x100, 8)
	issueLoad(c, ld, 2)
	c.Squash(50)
	c.Recover(50)
	// Store at age 60 > clamped YLA (50): safe, filtered.
	s := stats.NewSet()
	if r := c.StoreResolve(newStore(60, 0x100, 8)); r != nil {
		t.Fatal("unexpected replay")
	}
	c.Report(s)
	if s.Get("lq_searches_filtered") != 1 {
		t.Error("clamped YLA did not filter")
	}
}

func TestCAMBloomFiltering(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16, Filter: FilterBloom, BloomSize: 64}, new(energy.Model)))
	issueLoad(c, newLoad(10, 0x100, 8), 5)
	// Store to an address whose bucket is empty: filtered.
	st := newStore(3, 0x100+8*64*1024, 8)
	if c.bloom.Hash(st.Addr) == c.bloom.Hash(0x100) {
		t.Skip("hash collision in test addresses")
	}
	if r := c.StoreResolve(st); r != nil {
		t.Fatal("unexpected replay")
	}
	s := stats.NewSet()
	c.Report(s)
	if s.Get("lq_searches_filtered") != 1 {
		t.Error("bloom filter did not screen the search")
	}
	// Same address: must search and find the violation.
	if r := c.StoreResolve(newStore(3, 0x100, 8)); r == nil {
		t.Error("bloom-filtered CAM missed a real violation")
	}
}

func TestCAMBloomSquashCleans(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16, Filter: FilterBloom, BloomSize: 64}, new(energy.Model)))
	ld := newLoad(10, 0x100, 8)
	issueLoad(c, ld, 5)
	c.Squash(10)
	// After squash the filter should screen the search again.
	if c.bloom.MayMatch(0x100) {
		t.Error("squash left the load in the bloom filter")
	}
}

func TestCAMNames(t *testing.T) {
	if Must(NewCAM(CAMConfig{LQSize: 4}, new(energy.Model))).Name() != "cam" {
		t.Error("baseline name wrong")
	}
	if Must(NewCAM(CAMConfig{LQSize: 4, Filter: FilterYLA, YLARegs: 8}, new(energy.Model))).Name() != "cam+yla8" {
		t.Error("yla name wrong")
	}
	if Must(NewCAM(CAMConfig{LQSize: 4, Filter: FilterBloom, BloomSize: 32}, new(energy.Model))).Name() != "cam+bf32" {
		t.Error("bloom name wrong")
	}
}

func TestCAMRejectsBadConfig(t *testing.T) {
	_, err := NewCAM(CAMConfig{}, new(energy.Model))
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("zero LQ size: err = %v, want *ConfigError", err)
	}
	if ce.Policy != "cam" {
		t.Errorf("ConfigError.Policy = %q, want cam", ce.Policy)
	}
	if _, err := NewCAM(CAMConfig{LQSize: 8, Filter: FilterYLA, YLARegs: 3}, new(energy.Model)); err == nil {
		t.Error("non-power-of-two YLA register count accepted")
	}
	if _, err := NewCAM(CAMConfig{LQSize: 8, Filter: FilterBloom, BloomSize: 48}, new(energy.Model)); err == nil {
		t.Error("non-power-of-two bloom size accepted")
	}
}

func TestCAMReportCauses(t *testing.T) {
	c := Must(NewCAM(CAMConfig{LQSize: 16}, new(energy.Model)))
	issueLoad(c, newLoad(10, 0x100, 8), 5)
	c.StoreResolve(newStore(3, 0x100, 8))
	s := stats.NewSet()
	c.Report(s)
	if s.Get("replay_true_violation") != 1 || s.Get("replays_total") != 1 {
		t.Errorf("replay accounting wrong: %v", s)
	}
	if s.Get("lq_searches") != 1 {
		t.Errorf("searches = %v", s.Get("lq_searches"))
	}
}
