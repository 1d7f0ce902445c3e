package dmdc_test

import (
	"runtime"
	"testing"

	"dmdc"
	"dmdc/internal/core"
	"dmdc/internal/experiments"
	"dmdc/internal/resultcache"
	"dmdc/internal/trace"
)

// Allocation budget for one pooled-arena simulation run. The arena owns
// every per-run table — ROB, queues, wheel, cache hierarchy, branch
// predictor, generator and RNGs — so a warm run's remaining allocations
// are the policy, the energy model, the stats and the Result, not
// per-instruction or per-cycle work; the SoA/arena refactor drove
// BenchmarkSimBaseline from ~7.8k allocs/op to under a hundred. The
// ceiling is set loose enough for Go version drift in map/slice growth
// but far below what any per-dispatch or per-event allocation regression
// would produce (each costs tens of thousands per 5k-instruction run).
const allocBudget = 500

// allocBytesBudget caps the bytes one warm pooled 5k-instruction run
// allocates. Rebuilding the per-run tables instead of resetting the
// arena's costs ~500 KB (the 1 MB L2's 8,192 lines alone are ~200 KB); a
// warm run allocates ~17 KB.
const allocBytesBudget = 128 << 10

// TestAllocationBudget is the `make check` gate (alloc-gate target) that
// keeps the simulator's hot loop allocation-free and its per-run tables
// in the arena.
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
	got := bytesPerRun(10, run)
	t.Logf("%.0f bytes per warm pooled run", got)
	if got > allocBytesBudget {
		t.Fatalf("bytes allocated per run = %.0f, budget %d — a per-run table is rebuilt instead of reset in the arena",
			got, allocBytesBudget)
	}
}

// bytesPerRun returns the average heap bytes one call of f allocates,
// measured on one P so no other goroutine's allocations are counted.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// Allocation budget for one checkpoint save and one restore of a
// mid-run Config2/gcc/dmdc simulation. Both are a handful of buffer
// growths and decoded strings, independent of the state's size; a codec
// that allocated per field (boxing a check's arguments, say) would cost
// hundreds.
const checkpointAllocBudget = 50

// saveBytesSlack bounds a repeat save's bytes as a multiple of its
// record: the Sim sizes each save's buffer from its previous one, so a
// repeat save allocates the record once, where growing the buffer by
// append costs ~5× the record.
const saveBytesSlack = 1.1

// TestAllocationBudgetCheckpoint keeps checkpoint save and restore free
// of per-field allocations, and a repeat save to one record-sized buffer.
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
	saveAgain := func() {
		if _, err := donor.SaveCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	save := testing.AllocsPerRun(10, saveAgain)
	saveBytes := bytesPerRun(10, saveAgain)
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
	t.Logf("allocations: %.0f per save, %.0f per restore; %.0f bytes per repeat save of a %d-byte record",
		save, restore, saveBytes, len(blob))
	if save > checkpointAllocBudget || restore > checkpointAllocBudget {
		t.Fatalf("allocations per save = %.0f, per restore = %.0f, budget %d each — a per-field allocation crept into the codec",
			save, restore, checkpointAllocBudget)
	}
	if limit := saveBytesSlack * float64(len(blob)); saveBytes > limit {
		t.Fatalf("bytes allocated per repeat save = %.0f, budget %.0f (%.1f× the %d-byte record) — the encoder is growing its buffer again",
			saveBytes, limit, saveBytesSlack, len(blob))
	}
}

// Allocation budget for decoding one result-cache entry. A warm report
// decodes an entry per cell, and the decoder allocates only the Result,
// one string for all its names, the stats' slices, set and index. A
// decoder allocating per field, as a JSON one does, takes 85 allocations
// and 9.9 KB for this entry.
const (
	entryAllocBudget      = 10
	entryAllocBytesBudget = 4 << 10
)

// TestAllocationBudgetEntry keeps DecodeEntry of a Config2/gcc/dmdc 5k
// result within a fixed count and size of allocations.
func TestAllocationBudgetEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is load-sensitive; skipped in -short")
	}
	r, err := simulate(dmdc.Config2(), "gcc", dmdc.PolicyDMDC, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := resultcache.EncodeEntry(r)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, err := resultcache.DecodeEntry(entry); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, decode)
	bytes := bytesPerRun(100, decode)
	t.Logf("decoding a %d-byte entry with %d stats: %.0f allocations, %.0f bytes", len(entry), r.Stats.Len(), allocs, bytes)
	if allocs > entryAllocBudget || bytes > entryAllocBytesBudget {
		t.Fatalf("DecodeEntry: %.0f allocations and %.0f bytes per entry, budget %d and %d — the decoder allocates per field again",
			allocs, bytes, entryAllocBudget, entryAllocBytesBudget)
	}
}

// tapeRecordBytesBudget caps the bytes recording a tape into a released
// tape's storage allocates. Its records (16 bytes an instruction, 85 KB
// here) and end-state tables are reused, so it allocates nothing today;
// storage that is not reused costs more than 20 times the budget.
const tapeRecordBytesBudget = 4 << 10

// TestAllocationBudgetTape keeps a cell that replays its benchmark's tape
// as lean as one that generates its path, and the tapes of a report's
// benchmarks in one recycled set of storage: a warm pooled
// Config2/gcc/dmdc 5k cell over a tape stays within the warm-run budgets,
// and a second tape recorded into the first's storage allocates no tape
// storage.
func TestAllocationBudgetTape(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is load-sensitive; skipped in -short")
	}
	const insts = 5_000
	m := dmdc.Config2()
	factory, err := experiments.PolicyFactoryByName("dmdc")
	if err != nil {
		t.Fatal(err)
	}
	gcc, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	swim, err := trace.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	tape := new(trace.Tape)
	tape.Record(gcc, insts+core.FetchAhead(m))
	run := func() {
		arena := core.PooledArena()
		defer arena.Release()
		sim, err := experiments.NewCell(m, "gcc", factory, false, arena, core.WithTape(tape))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(insts); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena pool
	allocs := testing.AllocsPerRun(10, run)
	bytes := bytesPerRun(10, run)
	t.Logf("a warm pooled cell over a tape: %.0f allocations, %.0f bytes", allocs, bytes)
	if allocs > allocBudget || bytes > allocBytesBudget {
		t.Fatalf("a warm pooled cell over a tape allocates %.0f times and %.0f bytes, budget %d and %d",
			allocs, bytes, allocBudget, allocBytesBudget)
	}
	// The first tape, gcc's, is released; swim's is recorded into it, and
	// then gcc's again. Neither profile's CFG is built here: the cells
	// that replay a tape build it first.
	trace.NewGenerator(swim)
	record := func() {
		tape.Record(swim, insts+core.FetchAhead(m))
		tape.Record(gcc, insts+core.FetchAhead(m))
	}
	got := bytesPerRun(5, record) / 2
	t.Logf("recording a tape into released storage: %.0f bytes", got)
	if got > tapeRecordBytesBudget {
		t.Fatalf("recording a tape into a released one allocates %.0f bytes, budget %d — tape storage is not reused",
			got, tapeRecordBytesBudget)
	}
}
