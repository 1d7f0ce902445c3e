package experiments

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/energy"
	"dmdc/internal/lsq"
	"dmdc/internal/stats"
	"dmdc/internal/trace"
)

// TestRunMatrixRecoversPanics: a crashing run must surface as a labeled
// error, not a process crash, and must not discard sibling results.
func TestRunMatrixRecoversPanics(t *testing.T) {
	s := mustSuite(Options{Insts: 2000, Benchmarks: []string{"gzip", "swim"}})
	good := runSpec{key: "good", machine: config.Config2(), factory: BaselineFactory}
	bad := runSpec{
		key:     "bad",
		machine: config.Config2(),
		factory: func(m config.Machine, em *energy.Model) (lsq.Policy, error) {
			panic("factory exploded")
		},
	}
	out, err := s.runMatrix([]runSpec{good, bad})
	if err == nil {
		t.Fatal("panicking spec produced no error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a *RunError: %v", err)
	}
	if re.Key != "bad" || (re.Benchmark != "gzip" && re.Benchmark != "swim") {
		t.Errorf("error not labeled with spec key + benchmark: %+v", re)
	}
	if !strings.Contains(err.Error(), "factory exploded") {
		t.Errorf("cause lost: %v", err)
	}
	for i, r := range out["good"] {
		if r == nil {
			t.Errorf("sibling result %d discarded", i)
		}
	}
	for _, r := range out["bad"] {
		if r != nil {
			t.Error("failed run produced a result")
		}
	}
}

// TestRunMatrixProgress: progress lines carry completed/total counts.
func TestRunMatrixProgress(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s := mustSuite(Options{
		Insts:      1000,
		Benchmarks: []string{"gzip", "swim"},
		Progress: func(l string) {
			mu.Lock()
			lines = append(lines, l)
			mu.Unlock()
		},
	})
	s.get(keyBase("config2"))
	if len(lines) != 2 {
		t.Fatalf("got %d progress lines, want 2: %q", len(lines), lines)
	}
	counted := regexp.MustCompile(`^\[\d+/2\] (sim|hit)`)
	seenFinal := false
	for _, l := range lines {
		if !counted.MatchString(l) {
			t.Errorf("malformed progress line %q", l)
		}
		if strings.HasPrefix(l, "[2/2]") {
			seenFinal = true
		}
	}
	if !seenFinal {
		t.Errorf("no final [2/2] line in %q", lines)
	}
}

// TestSuiteErrSticky: runner errors accumulate on the suite, surface
// through Err, and leave sibling results usable.
func TestSuiteErrSticky(t *testing.T) {
	s := mustSuite(Options{Insts: 1000, Benchmarks: []string{"gzip"}})
	// Bypass NewSuite validation to exercise the runner's own guard
	// against unknown benchmarks (the old code path panicked here).
	s.opts.Benchmarks = []string{"gzip", "no-such-bench"}
	rs := s.Results(keyBase("config2"))
	err := s.Err()
	if err == nil {
		t.Fatal("unknown benchmark produced no suite error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a *RunError: %v", err)
	}
	if re.Key != keyBase("config2") || re.Benchmark != "no-such-bench" {
		t.Errorf("error not labeled: %+v", re)
	}
	if len(rs) != 2 || rs[0] == nil {
		t.Error("healthy benchmark's result discarded")
	}
	if rs[1] != nil {
		t.Error("failed benchmark produced a result")
	}
}

// gateBackend answers every job with an empty result and records how many
// Run calls were in flight at once. With want > 0 it holds each call until
// want calls are in flight together; if that has not happened within 5 s,
// every held and later call fails.
type gateBackend struct {
	want    int
	open    chan struct{}
	expired <-chan struct{}

	mu       sync.Mutex
	inflight int
	peak     int
}

func newGateBackend(t *testing.T, want int) *gateBackend {
	expired := make(chan struct{})
	timer := time.AfterFunc(5*time.Second, func() { close(expired) })
	t.Cleanup(func() { timer.Stop() })
	return &gateBackend{want: want, open: make(chan struct{}), expired: expired}
}

func (b *gateBackend) Name() string { return "gate" }

func (b *gateBackend) Run(ctx context.Context, spec JobSpec) (*core.Result, error) {
	b.mu.Lock()
	b.inflight++
	b.peak = max(b.peak, b.inflight)
	if b.want > 0 && b.inflight >= b.want {
		select {
		case <-b.open:
		default:
			close(b.open)
		}
	}
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.inflight--
		b.mu.Unlock()
	}()
	if b.want > 0 {
		select {
		case <-b.open:
		case <-b.expired:
			return nil, fmt.Errorf("%d calls never ran at once within 5s (peak %d)", b.want, b.maxInflight())
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	} else {
		time.Sleep(time.Millisecond) // let concurrent calls overlap
	}
	return &core.Result{Benchmark: spec.Benchmark, Stats: stats.NewSet()}, nil
}

func (b *gateBackend) maxInflight() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// TestSuiteBackendParallelism: with a Backend and no explicit
// Parallelism, the Suite hands every cell to the backend at once, so the
// backend's own in-flight windows, not the client's core count, bound the
// concurrency; an explicit Parallelism still caps it.
func TestSuiteBackendParallelism(t *testing.T) {
	keys := []string{
		keyBase("config1"), keyBase("config2"), keyBase("config3"),
		keyGlobal("config1"), keyGlobal("config2"), keyGlobal("config3"),
	}
	want := runtime.GOMAXPROCS(0) + 1
	if cells := len(keys) * len(trace.Names()); want > cells {
		t.Skipf("GOMAXPROCS+1 = %d exceeds the %d cells this test runs", want, cells)
	}

	gate := newGateBackend(t, want)
	s := mustSuite(Options{Insts: 1000, Backend: gate})
	s.get(keys...)
	if p := gate.maxInflight(); p < want {
		t.Fatalf("peak %d backend calls in flight, want at least %d", p, want)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	capped := newGateBackend(t, 0)
	s = mustSuite(Options{Insts: 1000, Backend: capped, Parallelism: 2})
	s.get(keys...)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if p := capped.maxInflight(); p > 2 {
		t.Fatalf("Parallelism 2 let %d calls run at once", p)
	}
}
