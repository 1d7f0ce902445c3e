package main

import (
	"context"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dmdc/internal/core"
	"dmdc/internal/experiments"
	"dmdc/internal/resultcache"
	"dmdc/internal/trace"
)

// matrixWorkload regenerates the paper's full report — every cell of the
// simulation matrix, 26 benchmarks deep — cold over an empty disk cache,
// then warm from that cache. Short cells put per-cell set-up (core.New,
// policy factories, energy models) and cache writes on the critical path;
// the warm passes read the same cache layer only.
type matrixWorkload struct {
	sz      sizes
	benches []string // seed-permuted; the report does not depend on the order
	dir     string
}

func setupMatrix(ctx context.Context, e env) (instance, error) {
	dir, err := os.MkdirTemp(e.dir, "matrix-")
	if err != nil {
		return nil, err
	}
	w := &matrixWorkload{sz: e.sz, benches: permuted(trace.Names(), e.seed), dir: dir}
	// Two benchmarks' share of the matrix, uncached: process start-up
	// (profile CFGs, policy tables, report code) is paid here, not by the
	// first timed cells. The same two for every seed, so set-up costs the
	// same for all of them.
	s, err := experiments.NewSuite(experiments.Options{
		Insts: e.sz.MatrixInsts, Parallelism: 2, Benchmarks: trace.Names()[:2], Context: ctx,
	})
	if err != nil {
		return nil, err
	}
	s.Report()
	if err := s.Err(); err != nil {
		return nil, err
	}
	return w, nil
}

// permuted returns names in a seed-determined order (seed 0 keeps it).
func permuted(names []string, seed int64) []string {
	out := append([]string(nil), names...)
	if seed != 0 {
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

func (w *matrixWorkload) close() { os.RemoveAll(w.dir) }

// pass runs one cold report over a fresh cache, then WarmPasses warm
// reports from it. Each simulated cell is one timed operation, measured
// from its cache miss to its cache write.
func (w *matrixWorkload) pass(ctx context.Context, t *tally) error {
	dir, err := os.MkdirTemp(w.dir, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := resultcache.Open(dir)
	if err != nil {
		return err
	}
	var (
		mu    sync.Mutex
		cells []string
	)
	cold := &storeProbe{inner: disk, tr: t.tr, parent: "cold report",
		onCell: func(key string, r *core.Result, d time.Duration) {
			t.op(d)
			t.result(r)
			h, err := digest(r)
			if err != nil {
				t.fail("cell %s: %v", key, err)
				return
			}
			mu.Lock()
			cells = append(cells, key+" "+h)
			mu.Unlock()
		}}
	opts := experiments.Options{
		Insts: w.sz.MatrixInsts, Parallelism: 2, Benchmarks: w.benches, Cache: cold, Context: ctx,
	}
	s, err := experiments.NewSuite(opts)
	if err != nil {
		return err
	}
	end := t.tr.begin("experiments", "Report", "cold", "pass")
	t0 := time.Now()
	report := s.Report()
	d := time.Since(t0)
	end()
	if err := s.Err(); err != nil {
		t.fail("cold report: %v", err)
		return nil
	}
	t.simulated(s.Simulated()*w.sz.MatrixInsts, d)
	t.detail("matrix_cold_s", d.Seconds())
	t.check("report", report)
	// The cells arrive in completion order; their digest must not.
	sort.Strings(cells)
	t.check("cells", strings.Join(cells, "\n"))

	for i := 0; i < w.sz.WarmPasses; i++ {
		opts.Cache = &storeProbe{inner: disk, tr: t.tr, parent: "warm report"}
		ws, err := experiments.NewSuite(opts)
		if err != nil {
			return err
		}
		end := t.tr.begin("experiments", "Report", "warm", "pass")
		t0 := time.Now()
		warm := ws.Report()
		d := time.Since(t0)
		end()
		switch {
		case ws.Err() != nil:
			t.fail("warm report: %v", ws.Err())
		case warm != report:
			t.fail("warm report differs from the cold one")
		case ws.Simulated() != 0:
			t.fail("warm report simulated %d cells", ws.Simulated())
		default:
			t.ok()
			t.detail("matrix_warm_ms", float64(d.Nanoseconds())/1e6)
		}
	}
	return nil
}
