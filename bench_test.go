package dmdc_test

// Simulator micro-benchmarks: raw throughput of one cell per policy, the
// telemetry overhead pair (DESIGN.md §9), the short-cell allocation
// profile and the sampled-execution pair (DESIGN.md §14). The paper's
// artifacts are timed end to end by cmd/dmdcbench's paper-matrix workload,
// and their numbers are checked by the claims table (make claims).

import (
	"context"
	"testing"

	"dmdc"
	"dmdc/internal/experiments"
)

// benchBudget is the per-workload instruction budget for benchmarks.
const benchBudget = 50_000

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
