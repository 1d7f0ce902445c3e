package dmdc_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"dmdc"
)

// simulate adapts the old positional call shape onto Run, the single
// entry point. Tests that need the full Request (Verify, Faults, a live
// context) call dmdc.Run directly.
func simulate(m dmdc.Machine, bench string, k dmdc.PolicyKind, insts uint64) (*dmdc.Result, error) {
	return dmdc.Run(context.Background(), dmdc.Request{
		Machine:   m,
		Benchmark: bench,
		Policy:    k,
		Insts:     insts,
	})
}

func TestRunFacade(t *testing.T) {
	for _, kind := range []dmdc.PolicyKind{
		dmdc.PolicyBaseline, dmdc.PolicyYLA, dmdc.PolicyDMDC, dmdc.PolicyDMDCLocal,
		dmdc.PolicyAgeTable, dmdc.PolicyValueBased, dmdc.PolicyValueSVW,
	} {
		r, err := simulate(dmdc.Config1(), "gzip", kind, 20_000)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if r.Insts < 20_000 || r.IPC() <= 0 {
			t.Errorf("%v: implausible result %v", kind, r)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := simulate(dmdc.Config1(), "nonesuch", dmdc.PolicyDMDC, 1000); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := simulate(dmdc.Config1(), "gzip", dmdc.PolicyKind(99), 1000); err == nil {
		t.Error("unknown policy accepted")
	}
	for _, rate := range []float64{-5, math.NaN(), math.Inf(1), 1000.5, 1e9} {
		_, err := dmdc.Run(context.Background(), dmdc.Request{
			Benchmark: "gzip", Policy: dmdc.PolicyDMDC, Insts: 1000, Invalidations: rate,
		})
		if err == nil || !strings.Contains(err.Error(), "invalidation rate") {
			t.Errorf("invalidation rate %v: got %v, want an invalidation rate error", rate, err)
		}
	}
}

func TestPolicyKindString(t *testing.T) {
	for _, c := range []struct {
		k dmdc.PolicyKind
		s string
	}{
		{dmdc.PolicyBaseline, "baseline"},
		{dmdc.PolicyYLA, "yla"},
		{dmdc.PolicyDMDC, "dmdc"},
		{dmdc.PolicyDMDCLocal, "dmdc-local"},
		{dmdc.PolicyAgeTable, "agetable"},
		{dmdc.PolicyValueBased, "value-based"},
		{dmdc.PolicyValueSVW, "value-svw"},
	} {
		if c.k.String() != c.s {
			t.Errorf("%v.String() = %q", c.k, c.k.String())
		}
	}
	if !strings.Contains(dmdc.PolicyKind(42).String(), "42") {
		t.Error("unknown policy string")
	}
}

func TestBenchmarksList(t *testing.T) {
	if got := len(dmdc.Benchmarks()); got != 26 {
		t.Errorf("benchmarks = %d, want 26", got)
	}
}

func TestConfigAccessors(t *testing.T) {
	if dmdc.Config1().ROBSize != 128 || dmdc.Config2().ROBSize != 256 || dmdc.Config3().ROBSize != 512 {
		t.Error("config facade values wrong")
	}
}

func TestRunWithInvalidations(t *testing.T) {
	r, err := dmdc.Run(context.Background(), dmdc.Request{
		Machine:       dmdc.Config2(),
		Benchmark:     "gcc",
		Policy:        dmdc.PolicyDMDC,
		Insts:         20_000,
		Invalidations: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Get("inv_injected") == 0 {
		t.Error("no invalidations injected through the facade")
	}
}

func TestSuiteFacade(t *testing.T) {
	s, err := dmdc.NewSuite(dmdc.SuiteOptions{Insts: 20_000, Benchmarks: []string{"gzip", "swim"}})
	if err != nil {
		t.Fatal(err)
	}
	f := s.Figure2()
	if len(f.QuadWord) == 0 {
		t.Error("suite facade produced empty figure")
	}
}
