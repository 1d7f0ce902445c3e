package lsq

import (
	"errors"
	"math/rand"
	"testing"

	"dmdc/internal/energy"
	"dmdc/internal/stats"
)

func testValueBased(svw bool) *ValueBased {
	return Must(NewValueBased(ValueBasedConfig{SVW: svw, SVWSize: 1024, LoadCap: 256}, new(energy.Model)))
}

func TestValueBasedConfigValidate(t *testing.T) {
	if err := (ValueBasedConfig{SVW: true, SVWSize: 64, LoadCap: 8}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []ValueBasedConfig{
		{SVW: true, SVWSize: 100, LoadCap: 8},
		{SVW: true, SVWSize: 0, LoadCap: 8},
		{LoadCap: 0},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config accepted: %+v", c)
		}
	}
}

func TestValueBasedRejectsBadConfig(t *testing.T) {
	_, err := NewValueBased(ValueBasedConfig{}, new(energy.Model))
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("zero load cap: err = %v, want *ConfigError", err)
	}
}

// driveValueBased replays a scenario: issues/resolves in time order, then
// commits in age order (stores stamping the SVW before younger loads
// check, matching in-order commit).
func driveValueBased(v *ValueBased, sc scenario) uint64 {
	ops := sc.memOps()
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if sc.ops[order[j]].when < sc.ops[order[i]].when {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, idx := range order {
		m := ops[idx]
		if m.IsLoad {
			m.Issued = true
			v.LoadIssue(m)
		} else if r := v.StoreResolve(m); r != nil {
			panic("value-based must not replay at resolve")
		}
	}
	for _, m := range ops {
		v.InstCommit(m.Age)
		if m.IsLoad {
			if r := v.LoadCommit(m); r != nil {
				return r.FromAge
			}
		} else {
			v.StoreCommit(m)
		}
	}
	return 0
}

func TestValueBasedDetectsViolation(t *testing.T) {
	v := testValueBased(false)
	ld := newLoad(10, 0x100, 8)
	ld.IssueCycle = 5
	ld.Issued = true
	v.LoadIssue(ld)
	st := newStore(3, 0x100, 8)
	st.ResolveCycle = 9
	v.StoreResolve(st)
	v.StoreCommit(st)
	r := v.LoadCommit(ld)
	if r == nil || r.Cause != CauseTrue || r.FromAge != 10 {
		t.Fatalf("violation not caught: %+v", r)
	}
}

func TestValueBasedNoFalsePositives(t *testing.T) {
	// Value comparison only fires on genuine violations: a load that
	// issued after the store resolved compares equal.
	v := testValueBased(false)
	st := newStore(3, 0x100, 8)
	st.ResolveCycle = 2
	v.StoreResolve(st)
	ld := newLoad(10, 0x100, 8)
	ld.IssueCycle = 7
	ld.Issued = true
	v.LoadIssue(ld)
	v.StoreCommit(st)
	if r := v.LoadCommit(ld); r != nil {
		t.Error("false positive from value comparison")
	}
}

func TestSVWFiltersInvulnerableLoads(t *testing.T) {
	v := testValueBased(true)
	// Load issues; NO store commits afterward: filtered, no re-execution.
	ld := newLoad(10, 0x100, 8)
	ld.Issued = true
	v.LoadIssue(ld)
	if r := v.LoadCommit(ld); r != nil {
		t.Fatal("unexpected replay")
	}
	s := stats.NewSet()
	v.Report(s)
	if s.Get("svw_filtered") != 1 || s.Get("reexecutions") != 0 {
		t.Errorf("SVW did not filter: %v", s)
	}
}

func TestSVWDoesNotFilterVulnerableLoads(t *testing.T) {
	v := testValueBased(true)
	ld := newLoad(10, 0x100, 8)
	ld.IssueCycle = 5
	ld.Issued = true
	v.LoadIssue(ld)
	st := newStore(3, 0x100, 8)
	st.ResolveCycle = 9
	v.StoreResolve(st)
	v.StoreCommit(st) // commits after the load issued: load is vulnerable
	r := v.LoadCommit(ld)
	if r == nil {
		t.Fatal("SVW filtered a genuinely vulnerable load")
	}
}

// Soundness: value-based checking (with and without SVW) never misses a
// genuine violation.
func TestValueBasedSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 2500; trial++ {
		sc := makeScenario(rng, 3+rng.Intn(12))
		want := sc.groundTruthViolation()
		if want == 0 {
			continue
		}
		for _, svw := range []bool{false, true} {
			got := driveValueBased(testValueBased(svw), sc)
			if got == 0 || got > want {
				t.Fatalf("trial %d svw=%v: violation at %d, replay at %d\nops: %+v",
					trial, svw, want, got, sc.ops)
			}
		}
	}
}

// Value-based checking is exact: no false replays on violation-free
// scenarios.
func TestValueBasedNoFalseReplaysProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 2500; trial++ {
		sc := makeScenario(rng, 3+rng.Intn(12))
		if sc.groundTruthViolation() != 0 {
			continue
		}
		if got := driveValueBased(testValueBased(true), sc); got != 0 {
			t.Fatalf("trial %d: false replay at %d", trial, got)
		}
	}
}

func TestValueBasedNames(t *testing.T) {
	if testValueBased(false).Name() != "value-based" {
		t.Error("name wrong")
	}
	if testValueBased(true).Name() != "value-svw1024" {
		t.Error("svw name wrong")
	}
	if testValueBased(true).LoadCapacity() != 256 {
		t.Error("capacity wrong")
	}
}

func TestValueBasedBandwidthAccounting(t *testing.T) {
	em := energy.NewModel(0)
	v := Must(NewValueBased(ValueBasedConfig{LoadCap: 64}, em))
	for i := 0; i < 100; i++ {
		ld := newLoad(uint64(i+1), uint64(0x1000+i*8), 8)
		ld.Issued = true
		v.LoadIssue(ld)
		v.LoadCommit(ld)
	}
	s := stats.NewSet()
	v.Report(s)
	if s.Get("reexecutions") != 100 {
		t.Errorf("re-executions = %v, want 100 (every load, no filter)", s.Get("reexecutions"))
	}
	if em.Snapshot().Of(energy.CompL1D) <= 0 {
		t.Error("re-execution bandwidth not charged")
	}
}
