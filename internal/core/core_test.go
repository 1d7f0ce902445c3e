package core

import (
	"math"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/trace"
)

func camSim(t *testing.T, bench string, opts ...Option) *Sim {
	t.Helper()
	cfg := config.Config2()
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(cfg.CoreSize())
	pol := lsq.Must(lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize}, em))
	return MustSim(New(cfg, prof, pol, em, opts...))
}

func dmdcSim(t *testing.T, bench string, local bool, opts ...Option) *Sim {
	t.Helper()
	cfg := config.Config2()
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(cfg.CoreSize())
	dcfg := lsq.DefaultDMDCConfig(cfg.CheckTable, cfg.ROBSize)
	dcfg.Local = local
	pol := lsq.Must(lsq.NewDMDC(dcfg, em))
	return MustSim(New(cfg, prof, pol, em, opts...))
}

func TestBaselineRuns(t *testing.T) {
	s := camSim(t, "gzip")
	r := s.MustRun(20000)
	// Commit is up to 8-wide, so the run may overshoot by a few.
	if r.Insts < 20000 || r.Insts > 20008 {
		t.Fatalf("committed %d, want ≈20000", r.Insts)
	}
	if ipc := r.IPC(); ipc < 0.3 || ipc > 8 {
		t.Errorf("IPC %.2f implausible", ipc)
	}
	if r.Energy.Total() <= 0 {
		t.Error("no energy accumulated")
	}
	if r.Stats.Get("lq_searches")+r.Stats.Get("lq_searches_filtered") == 0 {
		t.Error("no stores resolved?")
	}
}

// The committed stream must exactly equal the generator's committed path,
// in order, regardless of mispredictions and replays. This is the
// simulator's end-to-end correctness oracle.
func committedStreamMatches(t *testing.T, s *Sim, bench string, n uint64) {
	t.Helper()
	prof, _ := trace.ByName(bench)
	ref := trace.NewGenerator(prof)
	var mismatches int
	idx := uint64(0)
	s.commitHook = func(in isa.Inst) {
		want := ref.Next()
		if in.Seq != want.Seq || in.PC != want.PC || in.Op != want.Op || in.Addr != want.Addr {
			mismatches++
			if mismatches < 5 {
				t.Errorf("commit %d: got %v, want %v", idx, &in, &want)
			}
		}
		idx++
	}
	s.MustRun(n)
	if mismatches > 0 {
		t.Fatalf("%d committed instructions diverged from the trace", mismatches)
	}
}

func TestBaselineCommitsExactTrace(t *testing.T) {
	for _, bench := range []string{"gzip", "gcc", "mcf", "swim", "art"} {
		t.Run(bench, func(t *testing.T) {
			committedStreamMatches(t, camSim(t, bench), bench, 30000)
		})
	}
}

func TestDMDCCommitsExactTrace(t *testing.T) {
	for _, bench := range []string{"gcc", "vortex", "parser", "swim"} {
		t.Run(bench, func(t *testing.T) {
			committedStreamMatches(t, dmdcSim(t, bench, false), bench, 30000)
		})
	}
}

func TestDMDCLocalCommitsExactTrace(t *testing.T) {
	committedStreamMatches(t, dmdcSim(t, "vortex", true), "vortex", 30000)
}

func TestDMDCWithInvalidationsCommitsExactTrace(t *testing.T) {
	committedStreamMatches(t, dmdcSim(t, "gcc", false, WithInvalidations(10)), "gcc", 30000)
}

func TestDeterminism(t *testing.T) {
	r1 := camSim(t, "parser").MustRun(15000)
	r2 := camSim(t, "parser").MustRun(15000)
	if r1.Cycles != r2.Cycles {
		t.Errorf("cycles differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
	if r1.Energy.Total() != r2.Energy.Total() {
		t.Errorf("energy differs")
	}
}

func TestMispredictionsHappenAndRecover(t *testing.T) {
	s := camSim(t, "gcc") // branchy benchmark
	r := s.MustRun(30000)
	if r.Stats.Get("mispredict_recoveries") == 0 {
		t.Error("no mispredictions in a branchy benchmark — wrong-path model inert")
	}
	if r.Stats.Get("wrong_path_fetched") == 0 {
		t.Error("no wrong-path instructions fetched")
	}
}

func TestForwardingAndRejections(t *testing.T) {
	s := camSim(t, "vortex") // high alias rate
	r := s.MustRun(50000)
	if r.Stats.Get("forwards") == 0 {
		t.Error("no store-to-load forwarding in a high-alias benchmark")
	}
}

func TestMonitorsObserve(t *testing.T) {
	y1 := lsq.NewYLAMonitor(1, lsq.QuadWordShift)
	y8 := lsq.NewYLAMonitor(8, lsq.QuadWordShift)
	bf := lsq.NewBloomMonitor(256)
	sq := lsq.NewStoreAgeMonitor()
	s := camSim(t, "gzip", WithMonitors(y1, y8, bf, sq))
	r := s.MustRun(30000)
	if r.Stats.Get("yla1_qw_searches") == 0 {
		t.Fatal("YLA monitor saw no stores")
	}
	r1 := r.Stats.Get("yla1_qw_filter_rate")
	r8 := r.Stats.Get("yla8_qw_filter_rate")
	if r1 <= 0 || r1 > 1 || r8 <= 0 || r8 > 1 {
		t.Fatalf("filter rates out of range: %v %v", r1, r8)
	}
	if r8 < r1 {
		t.Errorf("8 YLA registers filtered less (%v) than 1 (%v)", r8, r1)
	}
	if r.Stats.Get("bf256_searches") == 0 {
		t.Error("bloom monitor inert")
	}
	if r.Stats.Get("sq_filter_loads") == 0 {
		t.Error("store-age monitor inert")
	}
}

func TestEnergyBreakdownSane(t *testing.T) {
	s := camSim(t, "gzip")
	r := s.MustRun(30000)
	total := r.Energy.Total()
	lq := r.Energy.LQEnergy()
	if lq <= 0 {
		t.Fatal("no LQ energy in baseline")
	}
	share := lq / total
	if share < 0.01 || share > 0.25 {
		t.Errorf("LQ share of processor energy = %.3f, outside plausible band", share)
	}
	if r.Energy.Of(energy.CompClock) <= 0 {
		t.Error("no clock energy")
	}
}

func TestDMDCReplaysAreRare(t *testing.T) {
	s := dmdcSim(t, "gcc", false)
	r := s.MustRun(100000)
	perM := r.Stats.Get("core_replays_total") / float64(r.Insts) * 1e6
	if perM > 5000 {
		t.Errorf("replay rate %.0f per Minst is far above the paper's ~168", perM)
	}
}

func TestDMDCChecksWindows(t *testing.T) {
	s := dmdcSim(t, "gcc", false)
	r := s.MustRun(100000)
	if r.Stats.Get("windows") == 0 {
		t.Fatal("no checking windows opened")
	}
	meanInsts := r.Stats.Get("window_insts_sum") / r.Stats.Get("windows")
	if meanInsts < 2 || meanInsts > 500 {
		t.Errorf("mean window size %.1f implausible", meanInsts)
	}
	if r.Stats.Get("safe_stores") == 0 || r.Stats.Get("unsafe_stores") == 0 {
		t.Error("store classification inert")
	}
	safeFrac := r.Stats.Get("safe_stores") /
		(r.Stats.Get("safe_stores") + r.Stats.Get("unsafe_stores"))
	if safeFrac < 0.5 {
		t.Errorf("safe-store fraction %.2f is too low for the mechanism to work", safeFrac)
	}
}

func TestInvalidationInjection(t *testing.T) {
	s := dmdcSim(t, "gcc", false, WithInvalidations(100))
	r := s.MustRun(30000)
	inj := r.Stats.Get("inv_injected")
	if inj == 0 {
		t.Fatal("no invalidations injected at rate 100/1000")
	}
	perK := inj / float64(r.Cycles) * 1000
	if perK < 50 || perK > 150 {
		t.Errorf("injected rate %.1f per 1000 cycles, want ≈100", perK)
	}
}

// A rate that is negative, NaN, or above one invalidation per cycle is an
// error, not a silent 0 or a saturated stream; the bounds themselves run.
func TestInvalidationRateValidated(t *testing.T) {
	cfg := config.Config2()
	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	build := func(rate float64) error {
		em := energy.NewModel(cfg.CoreSize())
		pol := lsq.Must(lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize}, em))
		_, err := New(cfg, prof, pol, em, WithInvalidations(rate))
		return err
	}
	for _, rate := range []float64{-5, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1), 1000.5, 1e9} {
		if err := build(rate); err == nil {
			t.Errorf("rate %v per 1000 cycles accepted", rate)
		}
	}
	for _, rate := range []float64{0, 0.5, 1000} {
		if err := build(rate); err != nil {
			t.Errorf("rate %v per 1000 cycles rejected: %v", rate, err)
		}
	}
}

func TestDMDCEnergyFarBelowBaseline(t *testing.T) {
	base := camSim(t, "gzip").MustRun(50000)
	dm := dmdcSim(t, "gzip", false).MustRun(50000)
	sav := energy.Savings(base.Energy.LQEnergy(), dm.Energy.LQEnergy())
	if sav < 0.70 {
		t.Errorf("DMDC LQ-functionality energy savings = %.2f, want ≥ 0.70 (paper ~0.95)", sav)
	}
	slowdown := float64(dm.Cycles)/float64(base.Cycles) - 1
	if slowdown > 0.10 {
		t.Errorf("DMDC slowdown %.3f is far above the paper's ~0.003", slowdown)
	}
}

func TestRunIsResumable(t *testing.T) {
	s := camSim(t, "gzip")
	r1 := s.MustRun(5000)
	r2 := s.MustRun(5000)
	if r2.Insts < 10000 || r2.Insts > 10016 {
		t.Errorf("cumulative insts = %d, want ≈10000", r2.Insts)
	}
	if r2.Cycles <= r1.Cycles {
		t.Error("cycles did not advance")
	}
}

func TestResultString(t *testing.T) {
	r := camSim(t, "gzip").MustRun(2000)
	if r.String() == "" || r.Benchmark != "gzip" || r.Config != "config2" {
		t.Errorf("result metadata wrong: %v", r)
	}
}
