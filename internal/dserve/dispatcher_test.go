package dserve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmdc/internal/core"
	"dmdc/internal/experiments"
	"dmdc/internal/resultcache"
	"dmdc/internal/stats"
)

// stubBackend scripts a Backend for dispatcher tests: per-call delay,
// scripted failures, and a call counter.
type stubBackend struct {
	name  string
	delay time.Duration
	calls atomic.Uint64
	// failFirst makes the first N calls fail retryably.
	failFirst int64
	remaining atomic.Int64
	// permanent, when set, fails every call non-retryably.
	permanent bool
	result    *core.Result
	// inflight/peak observe the backend's concurrency.
	inflight atomic.Int64
	peak     atomic.Int64
}

func newStub(name string, delay time.Duration, failFirst int64) *stubBackend {
	s := &stubBackend{name: name, delay: delay, failFirst: failFirst, result: &core.Result{Benchmark: name, Stats: stats.NewSet()}}
	s.remaining.Store(failFirst)
	return s
}

func (s *stubBackend) Name() string { return s.name }

func (s *stubBackend) Run(ctx context.Context, spec experiments.JobSpec) (*core.Result, error) {
	s.calls.Add(1)
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	if s.permanent {
		return nil, &BackendError{Backend: s.name, Err: fmt.Errorf("scripted permanent failure")}
	}
	if s.remaining.Add(-1) >= 0 {
		return nil, &BackendError{Backend: s.name, Retryable: true, Err: fmt.Errorf("scripted retryable failure")}
	}
	if s.delay > 0 {
		t := time.NewTimer(s.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, &BackendError{Backend: s.name, Retryable: true, Err: ctx.Err()}
		}
	}
	return s.result, nil
}

// dspec is a distinct valid job per index.
func dspec(i int) experiments.JobSpec {
	return experiments.JobSpec{
		RunKey:    "dmdc-global-config2",
		Benchmark: "gcc",
		Insts:     uint64(1000 + i),
	}
}

// TestDispatcherRetriesRetryable pins the backoff loop: two scripted
// retryable failures, then success, within one Run call.
func TestDispatcherRetriesRetryable(t *testing.T) {
	t.Parallel()
	b := newStub("flaky", 0, 2)
	d, err := NewDispatcher(DispatcherConfig{
		Backends:  []experiments.Backend{b},
		RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background(), dspec(0))
	if err != nil || res == nil {
		t.Fatalf("Run: %v", err)
	}
	if st := d.Stats(); st.Retries != 2 || st.Dispatched != 3 {
		t.Fatalf("stats: %+v, want 2 retries / 3 dispatches", st)
	}
}

// TestDispatcherPermanentFailureFast pins that deterministic failures are
// not retried (the same spec would fail identically anywhere).
func TestDispatcherPermanentFailureFast(t *testing.T) {
	t.Parallel()
	b := newStub("broken", 0, 0)
	b.permanent = true
	d, err := NewDispatcher(DispatcherConfig{
		Backends:  []experiments.Backend{b},
		RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background(), dspec(0)); err == nil {
		t.Fatal("permanent failure succeeded")
	}
	if got := b.calls.Load(); got != 1 {
		t.Fatalf("permanent failure dispatched %d times, want 1", got)
	}
}

// TestDispatcherGivesUp pins the attempt bound on persistent retryable
// failure.
func TestDispatcherGivesUp(t *testing.T) {
	t.Parallel()
	b := newStub("dead", 0, 1<<30)
	d, err := NewDispatcher(DispatcherConfig{
		Backends:    []experiments.Backend{b},
		MaxAttempts: 3,
		RetryBase:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background(), dspec(0)); err == nil {
		t.Fatal("dead backend succeeded")
	}
	if got := b.calls.Load(); got != 3 {
		t.Fatalf("dispatched %d times, want MaxAttempts=3", got)
	}
}

// TestDispatcherHedging pins straggler re-dispatch: with one slow and one
// fast backend, the hedge fires and the fast result wins well before the
// slow backend would have finished.
func TestDispatcherHedging(t *testing.T) {
	t.Parallel()
	slow := newStub("slow", 30*time.Second, 0)
	fast := newStub("fast", 0, 0)
	d, err := NewDispatcher(DispatcherConfig{
		Backends:   []experiments.Backend{slow, fast},
		HedgeAfter: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pin the round-robin cursor so the primary lands on the slow backend.
	d.next.Store(0)
	start := time.Now()
	res, err := d.Run(context.Background(), dspec(0))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Benchmark != "fast" {
		t.Fatalf("winner %q, want the hedged fast backend", res.Benchmark)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hedged run took %s", elapsed)
	}
	if st := d.Stats(); st.Hedges != 1 {
		t.Fatalf("stats: %+v, want 1 hedge", st)
	}
}

// TestDispatcherDedupesConcurrent pins in-flight dedupe: identical
// concurrent jobs share one backend execution.
func TestDispatcherDedupesConcurrent(t *testing.T) {
	t.Parallel()
	b := newStub("one", 50*time.Millisecond, 0)
	d, err := NewDispatcher(DispatcherConfig{Backends: []experiments.Backend{b}})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Run(context.Background(), dspec(7)); err != nil {
				t.Errorf("Run: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := b.calls.Load(); got != 1 {
		t.Fatalf("%d identical jobs dispatched %d executions, want 1", callers, got)
	}
	if st := d.Stats(); st.Deduped != callers-1 {
		t.Fatalf("stats: %+v, want %d deduped", st, callers-1)
	}
}

// TestDispatcherCacheResume pins idempotent resume: a second dispatcher
// sharing the cache directory answers the job without any backend call —
// the content address, not the process, owns the result.
func TestDispatcherCacheResume(t *testing.T) {
	t.Parallel()
	spec := experiments.JobSpec{RunKey: "baseline-config2", Benchmark: "gzip", Insts: 5_000}
	real, err := experiments.ExecuteJob(context.Background(), spec)
	if err != nil {
		t.Fatalf("ExecuteJob: %v", err)
	}
	dir := t.TempDir()
	cache, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := newStub("origin", 0, 0)
	b.result = real
	d1, err := NewDispatcher(DispatcherConfig{Backends: []experiments.Backend{b}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Run(context.Background(), spec); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if b.calls.Load() != 1 {
		t.Fatalf("first run made %d backend calls", b.calls.Load())
	}

	cache2, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDispatcher(DispatcherConfig{Backends: []experiments.Backend{b}, Cache: cache2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Run(context.Background(), spec); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := b.calls.Load(); got != 1 {
		t.Fatalf("resume went to the backend (%d calls), want cache hit", got)
	}
	if st := d2.Stats(); st.CacheHits != 1 {
		t.Fatalf("stats: %+v, want 1 cache hit", st)
	}
}

// TestDispatcherBackpressure pins the bounded in-flight window: with one
// backend and a window of 2, a third concurrent job waits for a slot
// instead of dispatching.
func TestDispatcherBackpressure(t *testing.T) {
	t.Parallel()
	b := newStub("narrow", 40*time.Millisecond, 0)
	d, err := NewDispatcher(DispatcherConfig{
		Backends:           []experiments.Backend{b},
		PerBackendInflight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := d.Run(context.Background(), dspec(100+i)); err != nil {
				t.Errorf("Run: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if b.calls.Load() != 6 {
		t.Fatalf("ran %d jobs, want 6", b.calls.Load())
	}
	if p := b.peak.Load(); p > 2 {
		t.Fatalf("backend saw %d concurrent jobs, window is 2", p)
	}
}

// TestDispatcherCancellation pins that a canceled caller context unblocks
// Run promptly with ctx.Err.
func TestDispatcherCancellation(t *testing.T) {
	t.Parallel()
	b := newStub("slowpoke", 30*time.Second, 0)
	d, err := NewDispatcher(DispatcherConfig{Backends: []experiments.Backend{b}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	if _, err := d.Run(ctx, dspec(0)); err == nil {
		t.Fatal("canceled run succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
}

// TestDispatcherHedgeRaceStress pins the audited hedge interleavings
// under the race detector (run via `go test -race`, as `make check`
// does): many concurrent distinct jobs over jittery backends force every
// ordering — hedge fires and loses, hedge fires and wins, primary and
// hedge finish back-to-back, caller cancellation mid-hedge — while the
// winner's cancel races the loser's release. The prior audit found no
// data race; this keeps it that way.
func TestDispatcherHedgeRaceStress(t *testing.T) {
	t.Parallel()
	backends := []experiments.Backend{
		newStub("b0", 2*time.Millisecond, 0),
		newStub("b1", 100*time.Microsecond, 0),
		newStub("b2", 4*time.Millisecond, 0),
	}
	d, err := NewDispatcher(DispatcherConfig{
		Backends:           backends,
		HedgeAfter:         500 * time.Microsecond,
		PerBackendInflight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 24
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%6 == 5 {
				// A slice of callers cancels mid-flight, racing the
				// hedge timer and both attempts' completions.
				c, cancel := context.WithTimeout(ctx, time.Duration(i)*200*time.Microsecond)
				defer cancel()
				ctx = c
			}
			res, err := d.Run(ctx, dspec(i))
			if err != nil {
				if ctx.Err() != nil {
					return // scripted cancellation
				}
				t.Errorf("Run(%d): %v", i, err)
				return
			}
			if res == nil {
				t.Errorf("Run(%d): nil result without error", i)
			}
		}(i)
	}
	wg.Wait()
	// Every slot must be released once the dust settles: acquire/release
	// pairing is exactly what the winner-cancels-loser path could break.
	// Losing attempts release from their own goroutines, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		held := 0
		for i := range d.slots {
			held += len(d.slots[i])
		}
		if held == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d slots still held after all runs returned", held)
		}
		time.Sleep(time.Millisecond)
	}
}
