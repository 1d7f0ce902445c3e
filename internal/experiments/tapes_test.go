package experiments

import (
	"context"
	"fmt"
	"regexp"
	"sync"
	"testing"
	"time"

	"dmdc/internal/core"
	"dmdc/internal/soundness"
	"dmdc/internal/trace"
)

// inProcess is a Backend that executes each job as dmdcd would, in this
// process: every cell generates its committed path live.
type inProcess struct{}

func (inProcess) Name() string { return "in-process" }

func (inProcess) Run(ctx context.Context, j JobSpec) (*core.Result, error) {
	return ExecuteJob(ctx, j)
}

// TestReportProgressOneSequence: a cold report fetches every run key in
// one matrix, so its progress is one [k/N] sequence over all N cells, each
// count printed exactly once, and rendering after the fetch simulates
// nothing more.
func TestReportProgressOneSequence(t *testing.T) {
	var (
		mu    sync.Mutex
		lines []string
	)
	s := mustSuite(Options{
		Insts:      1000,
		Benchmarks: []string{"gzip", "swim"},
		Progress: func(l string) {
			mu.Lock()
			lines = append(lines, l)
			mu.Unlock()
		},
	})
	s.Report()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	n := len(RunKeys()) * 2
	if got := s.Simulated(); got != uint64(n) {
		t.Errorf("a cold report simulated %d cells, want %d", got, n)
	}
	if len(lines) != n {
		t.Fatalf("%d progress lines, want %d", len(lines), n)
	}
	seen := make(map[int]bool)
	counted := regexp.MustCompile(fmt.Sprintf(`^\[(\d+)/%d\] sim `, n))
	for _, l := range lines {
		m := counted.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("progress line %q is not one of [k/%d]", l, n)
		}
		var k int
		fmt.Sscan(m[1], &k)
		if k < 1 || k > n || seen[k] {
			t.Fatalf("progress count %d out of range or repeated in %q", k, l)
		}
		seen[k] = true
	}
}

// TestTapeLifetime: a cold report over tapes, at every parallelism,
// renders the same report as a matrix whose cells generate their paths
// live (through a Backend, which never uses a tape), and a warm report
// from its cache simulates nothing.
func TestTapeLifetime(t *testing.T) {
	benches := []string{"gzip", "swim", "mcf", "gcc"}
	live := mustSuite(Options{Insts: 1500, Benchmarks: benches, Backend: inProcess{}, Parallelism: 3})
	want := live.Report()
	for _, par := range []int{1, 2, 3} {
		dir := t.TempDir()
		cold := mustSuite(Options{Insts: 1500, Benchmarks: benches, Parallelism: par, Cache: openCache(t, dir)})
		if got := cold.Report(); got != want {
			t.Fatalf("parallelism %d: the report over tapes differs from live generation's", par)
		}
		if err := cold.Err(); err != nil {
			t.Fatal(err)
		}
		warm := mustSuite(Options{Insts: 1500, Benchmarks: benches, Parallelism: par, Cache: openCache(t, dir)})
		if got := warm.Report(); got != want || warm.Simulated() != 0 {
			t.Fatalf("parallelism %d: the warm report differs or simulated %d cells", par, warm.Simulated())
		}
	}
}

// TestTapeSoundness: cells over tapes pass the lockstep oracle, which
// reads a live generator of its own, with and without correct-path alias
// faults remapping what the tape replays — both in a Suite and in cells
// handed a tape directly, so the check cannot pass without one.
func TestTapeSoundness(t *testing.T) {
	alias, err := soundness.ParseFaultSpec("alias=4096,wpalias=4096")
	if err != nil {
		t.Fatal(err)
	}
	const insts = 4000
	benches := []string{"gcc", "swim"}
	keys := []string{keyBase("config2"), keyGlobal("config2"), keyLocal("config3"), keyYLA, keyValueSVW}
	for _, faults := range []soundness.FaultSpec{{}, alias} {
		s := mustSuite(Options{Insts: insts, Benchmarks: benches, Soundness: true, Faults: faults, Parallelism: 2})
		s.get(keys...)
		if err := s.Err(); err != nil {
			t.Errorf("faults %q: %v", faults.String(), err)
		}
		if got, want := s.Simulated(), uint64(len(benches)*len(keys)); got != want {
			t.Errorf("faults %q: simulated %d cells, want %d", faults.String(), got, want)
		}
		for _, b := range benches {
			prof, err := trace.ByName(b)
			if err != nil {
				t.Fatal(err)
			}
			tape := new(trace.Tape)
			tape.Record(prof, insts/2) // the cells hand off to live generation
			for _, k := range keys {
				sp, _ := resolveSpec(k)
				j := JobSpec{RunKey: k, Benchmark: b, Insts: insts, Soundness: true, Faults: faults.String()}
				if _, err := executeCell(context.Background(), &sp, j, nil, tape); err != nil {
					t.Errorf("faults %q: %s/%s over a tape: %v", faults.String(), k, b, err)
				}
			}
		}
	}
}

// held counts the tapes ts has recorded and not yet released.
func (ts *tapeSet) held() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	n := 0
	for _, bt := range ts.benches {
		if bt.tape != nil {
			n++
		}
	}
	return n
}

// TestTapeSetReleasesAfterLastCell: a benchmark's tape stays live until
// its last cell finishes, and its storage records the next benchmark's.
func TestTapeSetReleasesAfterLastCell(t *testing.T) {
	ctx := context.Background()
	ts := newTapeSet(500, 0, []string{"gzip", "swim"}, 2)
	first := ts.acquire(ctx, "gzip")
	if first == nil || ts.acquire(ctx, "gzip") != first {
		t.Fatal("the second cell of a benchmark does not share its tape")
	}
	ts.done("gzip")
	if ts.held() != 1 {
		t.Fatalf("%d tapes held with one gzip cell outstanding, want 1", ts.held())
	}
	ts.done("gzip")
	if ts.held() != 0 {
		t.Fatalf("%d tapes held after gzip's last cell, want 0", ts.held())
	}
	if second := ts.acquire(ctx, "swim"); second != first || second.Profile().Name != "swim" {
		t.Error("swim's tape was not recorded into gzip's released storage")
	}
}

// TestTapeSetRecordsOnlyToShare: a tape is recorded only when another
// cell of its benchmark can replay it, and not once the matrix is
// cancelled. A one-key matrix, and a benchmark whose other cells all hit
// the cache, record none; their cells generate their paths live.
func TestTapeSetRecordsOnlyToShare(t *testing.T) {
	ctx := context.Background()
	one := newTapeSet(500, 0, []string{"gzip", "swim"}, 1)
	for _, b := range []string{"gzip", "swim"} {
		if one.acquire(ctx, b) != nil {
			t.Errorf("a one-key matrix recorded a tape of %s", b)
		}
		one.done(b)
	}
	warm := newTapeSet(500, 0, []string{"gzip"}, 3)
	warm.done("gzip") // two cache hits
	warm.done("gzip")
	if warm.acquire(ctx, "gzip") != nil {
		t.Error("the last cell of a benchmark recorded a tape")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if newTapeSet(500, 0, []string{"gzip"}, 3).acquire(cancelled, "gzip") != nil {
		t.Error("a cancelled matrix recorded a tape")
	}
	if n := newTapeSet(2_000_000, 500, nil, 0).n; n != maxTapeInsts {
		t.Errorf("a 2M-instruction matrix records %d instructions a tape, want the cap %d", n, maxTapeInsts)
	}
}

// TestTapeSetLiveBound: over the benchmark-major queue runMatrix uses,
// with P workers acquiring and finishing cells in any order, no more than
// P+1 tapes are ever held.
func TestTapeSetLiveBound(t *testing.T) {
	var specs []runSpec
	for _, k := range RunKeys()[:12] {
		sp, _ := resolveSpec(k)
		specs = append(specs, sp)
	}
	benches := trace.Names()
	for _, par := range []int{1, 2, 3, 5} {
		ts := newTapeSet(64, 0, benches, len(specs))
		jobs := make(chan job)
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			peak int
		)
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := range jobs {
					if ts.acquire(context.Background(), j.bench) != nil {
						n := ts.held()
						mu.Lock()
						peak = max(peak, n)
						mu.Unlock()
					}
					// Workers finish at different paces, so a slow one
					// holds an old benchmark's tape while the queue moves on.
					time.Sleep(time.Duration(w*(j.slot%3)) * 20 * time.Microsecond)
					ts.done(j.bench)
				}
			}(w)
		}
		for _, j := range matrixJobs(specs, benches) {
			jobs <- j
		}
		close(jobs)
		wg.Wait()
		if peak < 1 || peak > par+1 {
			t.Errorf("parallelism %d: %d tapes held at once, want 1 to %d", par, peak, par+1)
		}
		if ts.held() != 0 {
			t.Errorf("parallelism %d: %d tapes still held after every cell finished", par, ts.held())
		}
	}
}
