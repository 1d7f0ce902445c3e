package core

import (
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/lsq"
	"dmdc/internal/trace"
)

// stepChecked advances a simulation in small steps, checking invariants at
// every stop; catches bookkeeping drift near its source.
func stepChecked(t *testing.T, s *Sim, cycles, stride int) {
	t.Helper()
	for done := 0; done < cycles; done += stride {
		for i := 0; i < stride; i++ {
			s.step()
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after %d cycles: %v", done+stride, err)
		}
	}
}

func TestInvariantsBaseline(t *testing.T) {
	for _, bench := range []string{"gzip", "gcc", "mcf", "swim"} {
		t.Run(bench, func(t *testing.T) {
			stepChecked(t, camSim(t, bench), 20000, 64)
		})
	}
}

func TestInvariantsDMDC(t *testing.T) {
	for _, bench := range []string{"gcc", "vortex", "art"} {
		t.Run(bench, func(t *testing.T) {
			stepChecked(t, dmdcSim(t, bench, false), 20000, 64)
		})
	}
}

func TestInvariantsDMDCLocalWithInvalidations(t *testing.T) {
	s := dmdcSim(t, "parser", true, WithInvalidations(50))
	stepChecked(t, s, 20000, 64)
}

func TestInvariantsSmallConfig(t *testing.T) {
	// config1's tighter structures stress the stall paths.
	cfg := config.Config1()
	prof, err := trace.ByName("vortex")
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(cfg.CoreSize())
	pol := lsq.Must(lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize}, em))
	s := MustSim(New(cfg, prof, pol, em))
	stepChecked(t, s, 20000, 32)
}

func TestInvariantsLargeConfigYLA(t *testing.T) {
	cfg := config.Config3()
	prof, err := trace.ByName("applu")
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(cfg.CoreSize())
	pol := lsq.Must(lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize, Filter: lsq.FilterYLA, YLARegs: 8}, em))
	s := MustSim(New(cfg, prof, pol, em))
	stepChecked(t, s, 20000, 64)
}

func TestCommittedAccessor(t *testing.T) {
	s := camSim(t, "gzip")
	for i := 0; i < 3000; i++ {
		s.step()
	}
	if s.committed == 0 {
		t.Error("nothing committed after 3000 cycles")
	}
}
