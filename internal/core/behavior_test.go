package core

import (
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/trace"
)

// syntheticProfile builds a valid profile with extreme parameters to force
// specific pipeline behaviors.
func syntheticProfile(name string, mut func(*trace.Profile)) trace.Profile {
	p := trace.Profile{
		Name:      name,
		Class:     trace.INT,
		Seed:      77,
		Blocks:    64,
		BlockMin:  4,
		BlockMax:  10,
		LoadFrac:  0.30,
		StoreFrac: 0.12,
		Branch: trace.BranchStyle{
			BiasedFrac:  0.5,
			LoopFrac:    0.3,
			PatternFrac: 0.1,
			RandBias:    0.6,
			LoopMin:     4,
			LoopMax:     16,
		},
		WorkingSetKB:       64,
		SeqFrac:            0.4,
		StackFrac:          0.3,
		PointerChase:       0.05,
		AliasRate:          0.05,
		AliasWindow:        8,
		SizeW:              [4]float64{0, 0, 0.4, 0.6},
		DepDistMean:        4,
		AddrReadyFrac:      0.8,
		StoreAddrReadyFrac: 0.6,
		StorePtrFrac:       0.2,
	}
	if mut != nil {
		mut(&p)
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func runSynthetic(t *testing.T, prof trace.Profile, mkPol func(config.Machine, *energy.Model) lsq.Policy, n uint64) *Result {
	t.Helper()
	cfg := config.Config2()
	em := energy.NewModel(cfg.CoreSize())
	s := MustSim(New(cfg, prof, mkPol(cfg, em), em))
	return s.MustRun(n)
}

func camFactory(cfg config.Machine, em *energy.Model) lsq.Policy {
	return lsq.Must(lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize}, em))
}

func dmdcFactory(cfg config.Machine, em *energy.Model) lsq.Policy {
	return lsq.Must(lsq.NewDMDC(lsq.DefaultDMDCConfig(cfg.CheckTable, cfg.ROBSize), em))
}

// A store-free workload must never search the LQ or open checking windows.
func TestNoStoresNoChecking(t *testing.T) {
	prof := syntheticProfile("nostores", func(p *trace.Profile) {
		p.StoreFrac = 0
		p.AliasRate = 0
	})
	rCam := runSynthetic(t, prof, camFactory, 20000)
	if rCam.Stats.Get("lq_searches") != 0 {
		t.Errorf("LQ searched %v times without stores", rCam.Stats.Get("lq_searches"))
	}
	rD := runSynthetic(t, prof, dmdcFactory, 20000)
	if rD.Stats.Get("windows") != 0 {
		t.Errorf("%v checking windows without stores", rD.Stats.Get("windows"))
	}
	if rD.Stats.Get("core_replays_total") != 0 {
		t.Error("replays without stores")
	}
}

// A load-free workload: every store is trivially safe and nothing forwards.
func TestNoLoads(t *testing.T) {
	prof := syntheticProfile("noloads", func(p *trace.Profile) {
		p.LoadFrac = 0
		p.AliasRate = 0
		p.PointerChase = 0
	})
	r := runSynthetic(t, prof, dmdcFactory, 20000)
	if r.Stats.Get("unsafe_stores") != 0 {
		t.Errorf("%v unsafe stores without any loads", r.Stats.Get("unsafe_stores"))
	}
	if r.Stats.Get("forwards") != 0 {
		t.Error("forwarding without loads")
	}
	if r.Stats.Get("windows") != 0 {
		t.Error("checking windows without loads")
	}
}

// Heavy aliasing must produce forwarding and rejections, and the pipeline
// must still retire the exact trace.
func TestHeavyAliasing(t *testing.T) {
	prof := syntheticProfile("heavyalias", func(p *trace.Profile) {
		p.AliasRate = 0.4
		p.AliasWindow = 4
	})
	cfg := config.Config2()
	em := energy.NewModel(cfg.CoreSize())
	ref := trace.NewGenerator(prof)
	var mismatches int
	s := MustSim(New(cfg, prof, camFactory(cfg, em), em))
	s.commitHook = func(in isa.Inst) {
		if want := ref.Next(); in.Seq != want.Seq {
			mismatches++
		}
	}
	r := s.MustRun(30000)
	if mismatches > 0 {
		t.Fatalf("%d commits diverged under heavy aliasing", mismatches)
	}
	if r.Stats.Get("forwards") == 0 {
		t.Error("no forwarding under heavy aliasing")
	}
	if r.Stats.Get("load_rejections") == 0 {
		t.Error("no rejections under heavy aliasing (data-not-ready or partial)")
	}
}

// Unpredictable branches stress recovery: mispredicts must be frequent and
// the machine must still retire the exact stream.
func TestBranchStress(t *testing.T) {
	prof := syntheticProfile("brstress", func(p *trace.Profile) {
		p.Branch = trace.BranchStyle{RandBias: 0.5, LoopMin: 2, LoopMax: 4}
		p.BlockMin = 3
		p.BlockMax = 5
	})
	r := runSynthetic(t, prof, dmdcFactory, 30000)
	mpki := r.Stats.Get("bpred_mispredicts") / float64(r.Insts) * 1000
	if mpki < 20 {
		t.Errorf("mpki = %.1f, expected heavy misprediction", mpki)
	}
	if r.Stats.Get("wrong_path_fetched") == 0 {
		t.Error("no wrong-path execution despite mispredicts")
	}
}

// Tiny working set: the data cache must be nearly perfect after warmup.
func TestTinyWorkingSetHitsCache(t *testing.T) {
	prof := syntheticProfile("tinyws", func(p *trace.Profile) {
		p.WorkingSetKB = 4
		p.StackFrac = 0.5
	})
	r := runSynthetic(t, prof, camFactory, 50000)
	missRate := r.Stats.Get("l1d_misses") / r.Stats.Get("l1d_accesses")
	if missRate > 0.05 {
		t.Errorf("L1D miss rate %.3f too high for a 4KB working set", missRate)
	}
}

// Giant working set: misses must dominate and IPC must suffer relative to
// the tiny-working-set run.
func TestGiantWorkingSetMisses(t *testing.T) {
	small := syntheticProfile("ws-small", func(p *trace.Profile) { p.WorkingSetKB = 4 })
	big := syntheticProfile("ws-big", func(p *trace.Profile) {
		p.WorkingSetKB = 16384
		p.SeqFrac = 0.1
		p.StackFrac = 0.05
	})
	rs := runSynthetic(t, small, camFactory, 30000)
	rb := runSynthetic(t, big, camFactory, 30000)
	if rb.Stats.Get("l1d_misses")/rb.Stats.Get("l1d_accesses") <=
		rs.Stats.Get("l1d_misses")/rs.Stats.Get("l1d_accesses") {
		t.Error("bigger working set did not miss more")
	}
	if rb.IPC() >= rs.IPC() {
		t.Errorf("memory-bound run faster than cache-resident run: %.2f vs %.2f", rb.IPC(), rs.IPC())
	}
}

// The SQ-filter extension must be performance-neutral and filter-positive.
func TestSQFilterNeutrality(t *testing.T) {
	prof := syntheticProfile("sqf", nil)
	cfg := config.Config2()
	em1 := energy.NewModel(cfg.CoreSize())
	r1 := MustSim(New(cfg, prof, camFactory(cfg, em1), em1)).MustRun(30000)
	em2 := energy.NewModel(cfg.CoreSize())
	r2 := MustSim(New(cfg, prof, camFactory(cfg, em2), em2, WithSQFilter())).MustRun(30000)
	if r1.Cycles != r2.Cycles {
		t.Errorf("SQ filter changed timing: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
	if r2.Stats.Get("sq_searches_filtered") == 0 {
		t.Error("SQ filter inert")
	}
	if em2.Snapshot().Of(energy.CompSQ) >= em1.Snapshot().Of(energy.CompSQ) {
		t.Error("SQ filter saved no energy")
	}
}

// FP-heavy workloads exercise the FP cluster and its issue queue.
func TestFPClusterUsed(t *testing.T) {
	prof := syntheticProfile("fpheavy", func(p *trace.Profile) {
		p.Class = trace.FP
		p.FPFrac = 0.7
		p.LongLatFrac = 0.3
	})
	r := runSynthetic(t, prof, camFactory, 20000)
	if r.IPC() <= 0 {
		t.Fatal("FP-heavy run stalled")
	}
}
