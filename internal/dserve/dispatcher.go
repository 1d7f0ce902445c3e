package dserve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"dmdc/internal/core"
	"dmdc/internal/experiments"
)

// DispatcherConfig shapes a Dispatcher.
type DispatcherConfig struct {
	// Backends are the execution targets, tried round-robin. At least one
	// is required.
	Backends []experiments.Backend
	// PerBackendInflight bounds concurrent jobs per backend (backpressure:
	// when the chosen backend's window is full, Run blocks). 0 means 4.
	PerBackendInflight int
	// MaxAttempts bounds tries per job across backends, first included.
	// 0 means 4.
	MaxAttempts int
	// RetryBase is the first backoff delay, doubled per retry up to
	// RetryMax. Zero values mean 100ms and 5s.
	RetryBase time.Duration
	RetryMax  time.Duration
}

// DispatcherStats counts dispatcher activity; read with Dispatcher.Stats.
type DispatcherStats struct {
	// Dispatched counts attempts handed to backends (retries included).
	Dispatched uint64
	// Retries counts re-attempts after retryable failures.
	Retries uint64
}

// Dispatcher shards jobs across backends. It implements
// experiments.Backend, so a Suite (or anything else written against the
// interface) can switch from in-process execution to a server fleet by
// swapping one field. It caches nothing: a Suite's result cache fronts
// it, and a dmdcd server caches behind it. Safe for concurrent use.
type Dispatcher struct {
	cfg   DispatcherConfig
	slots []chan struct{} // per-backend in-flight windows
	next  atomic.Uint64   // round-robin cursor

	dispatched atomic.Uint64
	retries    atomic.Uint64
}

// NewDispatcher validates cfg and builds a Dispatcher.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("dserve: dispatcher needs at least one backend")
	}
	if cfg.PerBackendInflight <= 0 {
		cfg.PerBackendInflight = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 5 * time.Second
	}
	d := &Dispatcher{
		cfg:   cfg,
		slots: make([]chan struct{}, len(cfg.Backends)),
	}
	for i := range d.slots {
		d.slots[i] = make(chan struct{}, cfg.PerBackendInflight)
	}
	return d, nil
}

// Name identifies the dispatcher in errors and logs.
func (d *Dispatcher) Name() string { return "dispatcher" }

// Stats snapshots the activity counters.
func (d *Dispatcher) Stats() DispatcherStats {
	return DispatcherStats{
		Dispatched: d.dispatched.Load(),
		Retries:    d.retries.Load(),
	}
}

// Run executes one job: pick a backend, back off exponentially on
// retryable failures, and steer the next attempt away from the backend
// that just failed.
func (d *Dispatcher) Run(ctx context.Context, spec experiments.JobSpec) (*core.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var lastErr error
	avoid := -1
	backoff := d.cfg.RetryBase
	for attempt := 0; attempt < d.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			d.retries.Add(1)
			// A server that rejected us with a Retry-After hint knows its
			// own backlog better than our exponential guess does; honor the
			// hint (bounded by RetryMax) for this wait, keeping the
			// exponential schedule as the fallback.
			delay := backoff
			if hint, ok := RetryAfterHint(lastErr); ok {
				delay = hint
				if delay > d.cfg.RetryMax {
					delay = d.cfg.RetryMax
				}
			}
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
			backoff *= 2
			if backoff > d.cfg.RetryMax {
				backoff = d.cfg.RetryMax
			}
		}
		bi := d.pick(avoid)
		res, err := d.attempt(ctx, bi, spec)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !Retryable(err) {
			return nil, err
		}
		lastErr = err
		avoid = bi
	}
	return nil, fmt.Errorf("dserve: job %s/%s gave up after %d attempts: %w",
		spec.RunKey+spec.Policy, spec.Benchmark, d.cfg.MaxAttempts, lastErr)
}

// pick chooses the next backend round-robin, skipping avoid when another
// backend exists.
func (d *Dispatcher) pick(avoid int) int {
	n := len(d.cfg.Backends)
	i := int(d.next.Add(1)-1) % n
	if i == avoid && n > 1 {
		i = (i + 1) % n
	}
	return i
}

// attempt runs spec on backend bi once a slot in its window is free.
func (d *Dispatcher) attempt(ctx context.Context, bi int, spec experiments.JobSpec) (*core.Result, error) {
	select {
	case d.slots[bi] <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-d.slots[bi] }()
	d.dispatched.Add(1)
	return d.cfg.Backends[bi].Run(ctx, spec)
}
