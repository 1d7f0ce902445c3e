package dmdc_test

// Benchmark harness: one testing.B benchmark per paper artifact. Each
// bench regenerates its table or figure end-to-end (all simulations plus
// aggregation) at a reduced per-benchmark instruction budget, on a
// benchmark subset, so `go test -bench=. -benchmem` completes in minutes.
// For publication-scale numbers use cmd/experiments with -insts 1000000+.

import (
	"context"
	"testing"

	"dmdc"
	"dmdc/internal/experiments"
)

// benchBudget is the per-workload instruction budget for benchmarks.
const benchBudget = 50_000

// benchSet is a representative INT/FP mix.
var benchSet = []string{"gzip", "gcc", "vortex", "swim", "art", "applu"}

func newBenchSuite() *experiments.Suite {
	s, err := experiments.NewSuite(experiments.Options{
		Insts:      benchBudget,
		Benchmarks: benchSet,
	})
	if err != nil {
		panic(err)
	}
	return s
}

// benchArtifact times one artifact regeneration per iteration. A fresh
// Suite is required each time — the Suite memoizes results per run key, so
// a shared instance would turn every iteration after the first into pure
// table formatting — but its construction is excluded from the timed
// region so the benchmark measures simulation and aggregation only.
func benchArtifact(b *testing.B, run func(*experiments.Suite) bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newBenchSuite()
		b.StartTimer()
		if !run(s) {
			b.Fatal("incomplete artifact")
		}
	}
}

// benchSim times raw simulator throughput for one policy and reports
// committed instructions per wall-clock second. BenchmarkSimBaseline and
// BenchmarkSimTelemetry together measure telemetry's overhead budget
// (DESIGN.md §9); BENCH_core.json holds their frozen history.
func benchSim(b *testing.B, policy dmdc.PolicyKind) {
	b.Helper()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := simulate(dmdc.Config2(), "gcc", policy, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Insts
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(insts)/sec, "insts/s")
	}
}

// BenchmarkFigure2 regenerates the YLA filtering sweep (quad-word vs
// cache-line interleaving, 1..16 registers).
func BenchmarkFigure2(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.Figure2().QuadWord) > 0 })
}

// BenchmarkFigure3 regenerates the YLA vs Bloom-filter comparison.
func BenchmarkFigure3(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.Figure3().Bloom) > 0 })
}

// BenchmarkYLAEnergy regenerates the Section 6.1 YLA-only energy numbers.
func BenchmarkYLAEnergy(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.YLAEnergy().Rows) > 0 })
}

// BenchmarkFigure4 regenerates DMDC's energy/slowdown panels across the
// three machine configurations.
func BenchmarkFigure4(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.Figure4().Rows) == 6 })
}

// BenchmarkTable2 regenerates the global-DMDC checking-window statistics.
func BenchmarkTable2(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.Table2().Rows) == 2 })
}

// BenchmarkTable3 regenerates the global-DMDC false-replay breakdown.
func BenchmarkTable3(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.Table3().Rows) == 2 })
}

// BenchmarkTable4 regenerates the local-DMDC window statistics.
func BenchmarkTable4(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.Table4().Rows) == 2 })
}

// BenchmarkTable5 regenerates the local-DMDC false-replay breakdown.
func BenchmarkTable5(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.Table5().Rows) == 2 })
}

// BenchmarkFigure5 regenerates the local-vs-global slowdown comparison.
func BenchmarkFigure5(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.Figure5().Rows) == 6 })
}

// BenchmarkTable6 regenerates the external-invalidation sweep.
func BenchmarkTable6(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.Table6().Rows) > 0 })
}

// BenchmarkSafeLoadAblation regenerates the Section 6.2.2 ablation.
func BenchmarkSafeLoadAblation(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.SafeLoadAblation().Rows) == 2 })
}

// BenchmarkCheckQueue regenerates the checking-queue equivalence sweep.
func BenchmarkCheckQueue(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.CheckQueueEquivalence().Rows) > 0 })
}

// BenchmarkStoreFilter regenerates the Section 3 SQ-filter headroom stat.
func BenchmarkStoreFilter(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return s.StoreFilterPotential().All.N > 0 })
}

// BenchmarkSimBaseline measures raw simulator throughput for the
// conventional design (Config2, gcc).
func BenchmarkSimBaseline(b *testing.B) {
	benchSim(b, dmdc.PolicyBaseline)
}

// BenchmarkSimDMDC measures raw simulator throughput under DMDC.
func BenchmarkSimDMDC(b *testing.B) {
	benchSim(b, dmdc.PolicyDMDC)
}

// BenchmarkSimShortCell runs one cell the size of the paper-matrix's: a
// 5k-instruction Config2/gcc/DMDC dmdc.Run, short enough that per-run
// set-up, not the hot loop, sets its cost. With -memprofile it shows
// where a cell's bytes go (TestAllocationBudget gates the total).
func BenchmarkSimShortCell(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simulate(dmdc.Config2(), "gcc", dmdc.PolicyDMDC, 5_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimTelemetry is BenchmarkSimBaseline with a telemetry sampler
// attached at the default stride. Compared against the baseline number it
// measures the enabled-path overhead of the observability layer (the
// acceptance budget is ≤5%); the disabled path is covered by
// BenchmarkSimBaseline itself, which runs with s.tel == nil.
func BenchmarkSimTelemetry(b *testing.B) {
	var insts uint64
	for i := 0; i < b.N; i++ {
		sampler := dmdc.NewTelemetrySampler(dmdc.TelemetryConfig{})
		res, err := dmdc.Run(context.Background(), dmdc.Request{
			Machine:   dmdc.Config2(),
			Benchmark: "gcc",
			Policy:    dmdc.PolicyBaseline,
			Insts:     benchBudget,
			Telemetry: sampler,
		})
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Insts
		if len(sampler.Snapshot().Samples) == 0 {
			b.Fatal("sampler recorded nothing")
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(insts)/sec, "insts/s")
	}
}

// BenchmarkSimFull5M is the full-detail side of the sampled-execution
// acceptance pair: one 5M-instruction detailed run (Config2, gcc, DMDC).
func BenchmarkSimFull5M(b *testing.B) {
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExecuteJob(context.Background(), experiments.JobSpec{
			Machine: dmdc.Config2(), Policy: "dmdc", Benchmark: "gcc", Insts: 5_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Insts
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(insts)/sec, "insts/s")
	}
}

// BenchmarkSimSampled5M is the sampled side of the pair: the same 5M
// logical instructions as 20 detailed 10k-instruction intervals with
// fully warmed fast-forward between them (DESIGN.md §14). Its ns/op
// against BenchmarkSimFull5M is the sampled-mode speedup; insts/s counts
// logical (fast-forwarded + detailed) instructions.
func BenchmarkSimSampled5M(b *testing.B) {
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSampled(context.Background(), experiments.SampleSpec{
			Job: experiments.JobSpec{
				Machine: dmdc.Config2(), Policy: "dmdc", Benchmark: "gcc", Insts: 5_000_000,
			},
			Intervals:     20,
			IntervalInsts: 10_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		insts += res.TotalInsts
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(insts)/sec, "insts/s")
	}
}

// BenchmarkTableSizeSweep regenerates the checking-table sizing extension.
func BenchmarkTableSizeSweep(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.TableSizeSweep().Rows) > 0 })
}

// BenchmarkYLACountSweep regenerates the DMDC YLA-register-count sweep.
func BenchmarkYLACountSweep(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.DMDCYLASweep().Rows) > 0 })
}

// BenchmarkVerificationComparison regenerates the Section 7 design-space
// comparison (DMDC vs age table vs value-based ± SVW).
func BenchmarkVerificationComparison(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.VerificationComparison().Rows) > 0 })
}

// BenchmarkRelatedWork regenerates the Garg et al. comparison.
func BenchmarkRelatedWork(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.RelatedWork().Rows) > 0 })
}

// BenchmarkClampAblation regenerates the YLA recovery-clamp ablation.
func BenchmarkClampAblation(b *testing.B) {
	benchArtifact(b, func(s *experiments.Suite) bool { return len(s.ClampAblation().Rows) > 0 })
}
