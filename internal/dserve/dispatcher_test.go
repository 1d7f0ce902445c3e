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
