package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"dmdc/internal/core"
)

// SampleSpec describes one sampled-mode logical run: a long run whose
// detailed simulation is limited to a set of evenly spaced intervals,
// with functional fast-forward (optionally warming caches, predictor,
// and YLA filters) covering the distance between them.
//
// The run is split into Intervals periods of Job.Insts/Intervals
// instructions; the last IntervalInsts of each period are simulated in
// detail, the rest are fast-forwarded. Warmup controls how much of each
// fast-forwarded gap warms microarchitectural state: 0 warms the entire
// gap, W > 0 skips cold to W instructions before the interval and warms
// only those.
//
// Each detailed interval is checkpointed and becomes an independent
// content-addressed JobSpec (checkpoint blob + interval budget), so the
// intervals of one logical run can be sharded across dserve backends
// exactly like ordinary matrix cells.
type SampleSpec struct {
	// Job is the base cell in Policy form; Job.Insts is the total logical
	// run length. Soundness, faults, watchdog overrides, and run keys are
	// rejected — the checkpoint format fails closed on all of them.
	Job JobSpec
	// Intervals is the number of detailed intervals.
	Intervals int
	// IntervalInsts is the detailed-instruction budget per interval.
	IntervalInsts uint64
	// Warmup bounds warmed fast-forward instructions before each interval
	// (0 = warm every fast-forwarded instruction).
	Warmup uint64
	// Backend executes interval jobs; nil runs them in process through
	// the same ExecuteJob path a dmdcd server uses.
	Backend Backend
	// Parallelism bounds concurrent interval executions (0 = 4).
	Parallelism int
}

// Validate reports the first problem with the spec, or nil.
func (sp SampleSpec) Validate() error {
	if sp.Job.Policy == "" {
		return fmt.Errorf("experiments: sampled runs need a policy-form job")
	}
	if len(sp.Job.Checkpoint) > 0 || sp.Job.CheckpointRef != "" {
		return fmt.Errorf("experiments: sampled base job must not itself carry a checkpoint")
	}
	if err := sp.Job.Validate(); err != nil {
		return err
	}
	if sp.Job.Soundness || sp.Job.Faults != "" || sp.Job.WatchdogCycles > 0 {
		return fmt.Errorf("experiments: sampled runs cannot attach soundness, faults or a watchdog override")
	}
	if sp.Intervals <= 0 {
		return fmt.Errorf("experiments: sampled run needs a positive interval count")
	}
	if sp.IntervalInsts == 0 {
		return fmt.Errorf("experiments: sampled run needs a positive interval length")
	}
	period := sp.Job.Insts / uint64(sp.Intervals)
	if period < sp.IntervalInsts {
		return fmt.Errorf("experiments: %d intervals of %d insts do not fit in %d insts",
			sp.Intervals, sp.IntervalInsts, sp.Job.Insts)
	}
	return nil
}

// Interval is one measured slice of a sampled run.
type Interval struct {
	Index     int    `json:"index"`
	StartInst uint64 `json:"start_inst"` // committed instructions before the interval
	Insts     uint64 `json:"insts"`
	Cycles    uint64 `json:"cycles"`
	Replays   uint64 `json:"replays"`
	// CheckpointRef is the content address of the interval's start state.
	CheckpointRef string `json:"checkpoint_ref"`
}

// SampledResult aggregates a sampled run. All fields are deterministic
// functions of the spec, so two executions — local or sharded across any
// set of backends — produce byte-identical canonical JSON.
type SampledResult struct {
	Benchmark string `json:"benchmark"`
	Config    string `json:"config"`
	Policy    string `json:"policy"`

	TotalInsts     uint64 `json:"total_insts"`
	MeasuredInsts  uint64 `json:"measured_insts"`
	MeasuredCycles uint64 `json:"measured_cycles"`
	// EstimatedCycles extrapolates the measured CPI to the full run.
	EstimatedCycles uint64  `json:"estimated_cycles"`
	CPI             float64 `json:"cpi"`
	ReplaysPerKInst float64 `json:"replays_per_kinst"`

	Intervals []Interval `json:"intervals"`
}

// RunSampled executes one sampled-mode logical run: a single functional
// pass over the workload cuts a checkpoint at each sample point and
// dispatches that interval as an independent checkpoint job (in process
// or on sp.Backend) at once, so the detailed intervals overlap the rest of
// the pass. The per-interval deltas are aggregated in interval order. The
// scheduler itself never runs detailed timing.
//
// The run fails fast: the first error — the pass's, an interval's, or
// ctx's — cancels the intervals still running, drops those still queued,
// and is returned once every dispatched interval has stopped.
func RunSampled(ctx context.Context, sp SampleSpec) (*SampledResult, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	factory, err := PolicyFactoryByName(sp.Job.Policy)
	if err != nil {
		return nil, err
	}
	arena := core.PooledArena()
	defer arena.Release()
	sim, err := NewCell(sp.Job.Machine, sp.Job.Benchmark, factory, false, arena)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		runErr error // the first error; later ones are its consequences
	)
	fail := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		mu.Unlock()
		cancel()
	}

	// Detailed intervals, sharded. Results land by index, so completion
	// order cannot affect the aggregate.
	results := make([]*core.Result, sp.Intervals)
	refs := make([]string, sp.Intervals)
	par := sp.Parallelism
	if par <= 0 {
		par = 4
	}
	sem := make(chan struct{}, par)
	dispatch := func(i int, job JobSpec) {
		defer wg.Done()
		// Content-address the checkpoint here, off the functional pass.
		sum := sha256.Sum256(job.Checkpoint)
		job.CheckpointRef = hex.EncodeToString(sum[:])
		refs[i] = job.CheckpointRef
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			fail(ctx.Err())
			return
		}
		defer func() { <-sem }()
		if err := ctx.Err(); err != nil { // cancelled while queued
			fail(err)
			return
		}
		var r *core.Result
		var err error
		if sp.Backend != nil {
			r, err = sp.Backend.Run(ctx, job)
		} else {
			r, err = ExecuteJob(ctx, job)
		}
		if err != nil {
			fail(fmt.Errorf("experiments: interval %d: %w", i, err))
			return
		}
		results[i] = r
	}

	// Functional pass: walk the run once, cutting a checkpoint and a
	// cumulative-counter snapshot at the start of each detailed interval
	// and handing the interval straight to dispatch.
	period := sp.Job.Insts / uint64(sp.Intervals)
	gap := period - sp.IntervalInsts
	baselines := make([]*core.Result, sp.Intervals)
	starts := make([]uint64, sp.Intervals)
	pass := func() error {
		var pos uint64
		for i := 0; i < sp.Intervals; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			warm := gap
			if sp.Warmup > 0 && sp.Warmup < gap {
				warm = sp.Warmup
			}
			if err := sim.FastForward(gap-warm, false); err != nil {
				return err
			}
			if err := sim.FastForward(warm, true); err != nil {
				return err
			}
			pos += gap
			blob, err := sim.SaveCheckpoint()
			if err != nil {
				return err
			}
			base, err := sim.Snapshot()
			if err != nil {
				return err
			}
			job := sp.Job
			job.Insts = sp.IntervalInsts
			job.Checkpoint = blob
			baselines[i], starts[i] = base, pos
			wg.Add(1)
			go dispatch(i, job)
			// Step functionally over the interval itself; the detailed replay
			// of these instructions happens in the interval job. The last
			// interval has no successor to reach.
			if i+1 < sp.Intervals {
				if err := sim.FastForward(sp.IntervalInsts, true); err != nil {
					return err
				}
			}
			pos += sp.IntervalInsts
		}
		return nil
	}
	if err := pass(); err != nil {
		fail(err)
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}

	out := &SampledResult{
		Benchmark:  sp.Job.Benchmark,
		Config:     sp.Job.Machine.Name,
		Policy:     sp.Job.Policy,
		TotalInsts: sp.Job.Insts,
		Intervals:  make([]Interval, 0, sp.Intervals),
	}
	for i, r := range results {
		base := baselines[i]
		iv := Interval{
			Index:         i,
			StartInst:     starts[i],
			Insts:         r.Insts - base.Insts,
			Cycles:        r.Cycles - base.Cycles,
			Replays:       uint64(r.Stats.Get("core_replays_total") - base.Stats.Get("core_replays_total")),
			CheckpointRef: refs[i],
		}
		out.MeasuredInsts += iv.Insts
		out.MeasuredCycles += iv.Cycles
		out.Intervals = append(out.Intervals, iv)
	}
	if out.MeasuredInsts > 0 {
		out.CPI = float64(out.MeasuredCycles) / float64(out.MeasuredInsts)
		out.EstimatedCycles = uint64(out.CPI*float64(out.TotalInsts) + 0.5)
		var replays uint64
		for _, iv := range out.Intervals {
			replays += iv.Replays
		}
		out.ReplaysPerKInst = float64(replays) * 1000 / float64(out.MeasuredInsts)
	}
	return out, nil
}
