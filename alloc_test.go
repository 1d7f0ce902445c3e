package dmdc_test

import (
	"runtime"
	"testing"

	"dmdc"
	"dmdc/internal/core"
	"dmdc/internal/experiments"
)

// Allocation budget for one pooled-arena simulation run. A warm run's
// remaining allocations are per-run construction — cache hierarchy,
// branch predictor, policy, stats — not per-instruction or per-cycle
// work; the SoA/arena refactor drove BenchmarkSimBaseline from ~7.8k
// allocs/op to under a hundred. The ceiling is set loose enough for Go
// version drift in map/slice growth but far below what any per-dispatch
// or per-event allocation regression would produce (each costs tens of
// thousands per 5k-instruction run).
const allocBudget = 500

// TestAllocationBudget is the `make check` gate (alloc-gate target) that
// keeps the simulator's hot loop allocation-free.
func TestAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is load-sensitive; skipped in -short")
	}
	run := func() {
		if _, err := simulate(dmdc.Config2(), "gcc", dmdc.PolicyDMDC, 5_000); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena pool and the CFG template cache
	if got := testing.AllocsPerRun(10, run); got > allocBudget {
		t.Fatalf("allocations per run = %.0f, budget %d — a hot-path allocation crept back in", got, allocBudget)
	}
}

// Allocation budget for one checkpoint save and one restore of a
// mid-run Config2/gcc/dmdc simulation. Both are a handful of buffer
// growths and decoded strings, independent of the state's size; a codec
// that allocated per field (boxing a check's arguments, say) would cost
// hundreds.
const checkpointAllocBudget = 50

// TestAllocationBudgetCheckpoint keeps checkpoint save and restore free
// of per-field allocations.
func TestAllocationBudgetCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is load-sensitive; skipped in -short")
	}
	factory, err := experiments.PolicyFactoryByName("dmdc")
	if err != nil {
		t.Fatal(err)
	}
	donor := newFactorySim(t, dmdc.Config2(), "gcc", factory)
	if _, err := donor.Run(20_000); err != nil {
		t.Fatal(err)
	}
	blob, err := donor.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	save := testing.AllocsPerRun(10, func() {
		if _, err := donor.SaveCheckpoint(); err != nil {
			t.Fatal(err)
		}
	})
	// Restores need pristine targets, built outside the counted region.
	const restores = 10
	targets := make([]*core.Sim, restores)
	for i := range targets {
		targets[i] = newFactorySim(t, dmdc.Config2(), "gcc", factory)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range targets {
		if err := s.RestoreCheckpoint(blob); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	restore := float64(after.Mallocs-before.Mallocs) / restores
	t.Logf("allocations: %.0f per save, %.0f per restore", save, restore)
	if save > checkpointAllocBudget || restore > checkpointAllocBudget {
		t.Fatalf("allocations per save = %.0f, per restore = %.0f, budget %d each — a per-field allocation crept into the codec",
			save, restore, checkpointAllocBudget)
	}
}
