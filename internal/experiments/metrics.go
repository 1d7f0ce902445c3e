package experiments

import (
	"dmdc/internal/core"
	"dmdc/internal/lsq"
	"dmdc/internal/stats"
)

// Derived per-run metrics used across experiments.

// perMillion scales a count to per-million-committed-instructions.
func perMillion(r *core.Result, count float64) float64 {
	if r.Insts == 0 {
		return 0
	}
	return count / float64(r.Insts) * 1e6
}

// falseReplaysPerM returns the rate of unnecessary replays.
func falseReplaysPerM(r *core.Result) float64 {
	total := r.Stats.Get("core_replays_total")
	trueV := r.Stats.Get("core_replay_" + lsq.CauseTrue.String())
	return perMillion(r, total-trueV)
}

// replayRatePerM returns a specific cause's rate.
func replayRatePerM(r *core.Result, c lsq.Cause) float64 {
	return perMillion(r, r.Stats.Get("core_replay_"+c.String()))
}

// windowMeans returns mean instructions, loads, and safe loads per
// checking window for one run (zeroes when no window opened).
func windowMeans(r *core.Result) (insts, loads, safeLoads float64) {
	w := r.Stats.Get("windows")
	if w == 0 {
		return 0, 0, 0
	}
	return r.Stats.Get("window_insts_sum") / w,
		r.Stats.Get("window_loads_sum") / w,
		r.Stats.Get("window_safe_loads_sum") / w
}

// checkingPct returns the percentage of cycles spent in checking mode.
func checkingPct(r *core.Result) float64 {
	return 100 * r.Stats.Get("checking_cycles") / r.Stats.Get("policy_cycles")
}

// safeStorePct returns the percentage of resolved stores marked safe.
func safeStorePct(r *core.Result) float64 {
	s := r.Stats.Get("safe_stores")
	u := r.Stats.Get("unsafe_stores")
	if s+u == 0 {
		return 0
	}
	return 100 * s / (s + u)
}

// singleStoreWindowPct returns the share of windows with one unsafe store.
func singleStoreWindowPct(r *core.Result) float64 {
	w := r.Stats.Get("windows")
	if w == 0 {
		return 0
	}
	return 100 * r.Stats.Get("single_store_windows") / w
}

// statPct returns the metric that reads one named rate stat as a percentage.
func statPct(name string) func(*core.Result) float64 {
	return func(r *core.Result) float64 { return 100 * r.Stats.Get(name) }
}

// summarizeMetric folds a per-run metric over a result group.
func summarizeMetric(rs []*core.Result, metric func(*core.Result) float64) stats.Summary {
	var m stats.Summary
	for _, r := range rs {
		if r != nil {
			m.Observe(metric(r))
		}
	}
	return m
}

// summarizePairs folds a per-pair metric over zipped base/test runs.
func summarizePairs(ps []pair, metric func(pair) float64) stats.Summary {
	var m stats.Summary
	for _, p := range ps {
		m.Observe(metric(p))
	}
	return m
}
