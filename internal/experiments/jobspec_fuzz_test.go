package experiments

import (
	"context"
	"encoding/json"
	"runtime"
	"strconv"
	"testing"

	"dmdc/internal/bpred"
	"dmdc/internal/cache"
	"dmdc/internal/config"
)

// checkMachineLimits fails t when any size of m lies outside the
// validation limits (config, cache and bpred) — the property that keeps
// an accepted wire spec from exhausting the host.
func checkMachineLimits(t *testing.T, m config.Machine) {
	t.Helper()
	groups := []struct {
		name string
		vs   []int
		max  int
	}{
		{"width", []int{m.FetchWidth, m.IssueWidth, m.CommitWidth,
			m.IntALUs, m.IntMulDiv, m.FPALUs, m.FPMulDiv, m.MemPorts}, config.MaxWidth},
		{"window", []int{m.ROBSize, m.IQInt, m.IQFP, m.LQSize, m.SQSize, m.IntRegs, m.FPRegs}, config.MaxWindow},
		{"check table", []int{m.CheckTable}, config.MaxCheckTable},
		{"predictor table", []int{m.BPred.BimodalEntries, m.BPred.GshareEntries,
			m.BPred.MetaEntries, m.BPred.BTBEntries}, bpred.MaxEntries},
	}
	for _, g := range groups {
		for _, v := range g.vs {
			if v < 1 || v > g.max {
				t.Fatalf("accepted machine has %s %d outside [1, %d]", g.name, v, g.max)
			}
		}
	}
	for _, c := range []cache.Config{m.Memory.L1I, m.Memory.L1D, m.Memory.L2} {
		if c.LineB < 1 || c.LineB > cache.MaxLineB || c.Ways < 1 || c.Ways > cache.MaxWays ||
			c.SizeB < 1 || c.SizeB/c.LineB > cache.MaxLines {
			t.Fatalf("accepted machine has cache geometry beyond the limits: %+v", c)
		}
	}
	if m.Memory.MemLatency < 1 {
		t.Fatalf("accepted machine has memory latency %d", m.Memory.MemLatency)
	}
}

// FuzzJobSpecValidate drives dmdcd's trust boundary: arbitrary bytes
// decode into a JobSpec and go through Validate. Nothing panics, and a
// spec Validate accepts has a content address and resolves to a machine
// within every size limit.
func FuzzJobSpecValidate(f *testing.F) {
	valid := JobSpec{Machine: config.Config2(), Policy: "dmdc", Benchmark: "gcc", Insts: 5000}
	seed := func(mutate func(*config.Machine)) {
		j := valid
		mutate(&j.Machine)
		b, err := json.Marshal(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(func(*config.Machine) {})
	// The crashers: Ways*LineB overflowing to zero divided by zero, and
	// a huge ROB or L2 exhausted memory in the worker.
	half := 1 << (strconv.IntSize / 2)
	seed(func(m *config.Machine) { m.Memory.L1D.Ways, m.Memory.L1D.LineB = half, half })
	seed(func(m *config.Machine) { m.ROBSize = 1 << 28 })
	seed(func(m *config.Machine) { m.Memory.L2.SizeB = 1 << 34 })
	f.Add([]byte(`{"machine":{},"run_key":"dmdc-global-config2","benchmark":"gcc","insts":100000}`))
	f.Add([]byte(`{"machine":{"ROBSize":-1},"policy":"yla","benchmark":"swim","insts":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var j JobSpec
		if json.Unmarshal(data, &j) != nil || j.Validate() != nil {
			return
		}
		if len(j.CacheKey()) == 0 {
			t.Fatal("accepted spec has no content address")
		}
		sp, err := specForJob(j)
		if err != nil {
			t.Fatalf("accepted spec does not resolve: %v", err)
		}
		checkMachineLimits(t, sp.machine)
	})
}

// TestMachineAtLimitsRuns runs a short job on a machine with every size
// at its limit: it must pass Validate and stay within a fixed allocation
// budget, so the limits admit nothing that can exhaust a server. Not
// parallel: TotalAlloc is process-wide.
func TestMachineAtLimitsRuns(t *testing.T) {
	m := config.Config2()
	m.Name = "limits"
	for _, p := range []*int{&m.FetchWidth, &m.IssueWidth, &m.CommitWidth,
		&m.IntALUs, &m.IntMulDiv, &m.FPALUs, &m.FPMulDiv, &m.MemPorts} {
		*p = config.MaxWidth
	}
	for _, p := range []*int{&m.ROBSize, &m.IQInt, &m.IQFP, &m.LQSize, &m.SQSize, &m.IntRegs, &m.FPRegs} {
		*p = config.MaxWindow
	}
	m.CheckTable = config.MaxCheckTable
	m.BPred = bpred.Config{BimodalEntries: bpred.MaxEntries, GshareEntries: bpred.MaxEntries,
		HistoryBits: 20, MetaEntries: bpred.MaxEntries, BTBEntries: bpred.MaxEntries, BTBWays: 4}
	for _, c := range []*cache.Config{&m.Memory.L1I, &m.Memory.L1D, &m.Memory.L2} {
		c.Ways = cache.MaxWays
		c.SizeB = cache.MaxLines * c.LineB
	}
	spec := JobSpec{Machine: m, Policy: "dmdc", Benchmark: "gzip", Insts: 2000}
	if err := spec.Validate(); err != nil {
		t.Fatalf("machine at the limits rejected: %v", err)
	}
	checkMachineLimits(t, m)

	const budget = 256 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := ExecuteJob(context.Background(), spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("job on the limit machine: %v", err)
	}
	if res.Insts < spec.Insts {
		t.Fatalf("committed %d of %d instructions", res.Insts, spec.Insts)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("limit machine: %.1f MB allocated", float64(alloc)/(1<<20))
	if alloc > budget {
		t.Fatalf("limit machine allocated %d MB, budget %d MB", alloc>>20, budget>>20)
	}
}
