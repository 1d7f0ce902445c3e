package main

import (
	"context"
	"time"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/experiments"
)

// sampledWorkload is one long sampled run of a fixed cell, gcc/config2/dmdc:
// correct-path generation, functional warming and checkpoint save/restore
// dominate, with little pipeline or wrong-path work. It ignores the seed.
// The intervals run one at a time, after the single-threaded functional
// pass, so all of the run's work is on one core and calibrates on one.
type sampledWorkload struct {
	sz sizes
}

func (w *sampledWorkload) spec(insts uint64, intervals int, b experiments.Backend) experiments.SampleSpec {
	return experiments.SampleSpec{
		Job:           experiments.JobSpec{Machine: config.Config2(), Policy: "dmdc", Benchmark: "gcc", Insts: insts},
		Intervals:     intervals,
		IntervalInsts: w.sz.IntervalInsts,
		Parallelism:   1,
		Backend:       b,
	}
}

func setupSampled(ctx context.Context, e env) (instance, error) {
	w := &sampledWorkload{sz: e.sz}
	// A short run pays process start-up (the profile's CFG, checkpoint
	// code) before timing.
	if _, err := experiments.RunSampled(ctx, w.spec(e.sz.SampledInsts/20, 4, nil)); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *sampledWorkload) close() {}

// pass runs one sampled run; each detailed interval, executed in process
// through the same ExecuteJob path a dmdcd server uses, is one timed
// operation.
func (w *sampledWorkload) pass(ctx context.Context, t *tally) error {
	b := &backendProbe{tr: t.tr, layer: "experiments", name: "interval",
		onRun: func(r *core.Result, d time.Duration, err error) {
			if err != nil {
				t.fail("interval: %v", err)
				return
			}
			t.op(d)
			t.result(r)
		}}
	end := t.tr.begin("experiments", "RunSampled", "gcc/config2/dmdc", "pass")
	t0 := time.Now()
	res, err := experiments.RunSampled(ctx, w.spec(w.sz.SampledInsts, w.sz.Intervals, b))
	d := time.Since(t0)
	end()
	if err != nil {
		t.fail("sampled run: %v", err)
		return nil
	}
	t.ok()
	t.simulated(res.TotalInsts, d)
	t.detail("sampled_s", d.Seconds())
	t.check("sampled", res)
	return nil
}
