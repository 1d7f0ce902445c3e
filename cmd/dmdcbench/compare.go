package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords loads the run records a glob matches, in file-name order.
func readRecords(glob string) ([]*record, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no run records match %q", glob)
	}
	sort.Strings(paths)
	var out []*record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// Verdicts on a change judged against its parent; see judge.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares the runs of one (workload, metric) pair. A median worse
// by more than bound is a regression. Otherwise a parent spread (IQR over
// median) wider than the bound leaves the pair unresolved, unless every new
// run beats every parent run. A gain needs the new runs to win at least
// nine in ten pairs and the medians to differ by more than the parent's
// IQR.
func judge(base, cur []float64, lowerBetter bool, bound float64) (verdict string, change float64) {
	b, c := sorted(base), sorted(cur)
	mb, mc := quantile(b, 0.5), quantile(c, 0.5)
	iqr := quantile(b, 0.75) - quantile(b, 0.25)
	better := func(x, y float64) bool { return (lowerBetter && x < y) || (!lowerBetter && x > y) }
	change = (mc - mb) / mb
	worse := change
	if !lowerBetter {
		worse = -change
	}
	wins, pairs := 0, min(len(base), len(cur))
	for i := 0; i < pairs; i++ {
		if better(cur[i], base[i]) {
			wins++
		}
	}
	allBetter := better(c[len(c)-1], b[0])
	if !lowerBetter {
		allBetter = better(c[0], b[len(b)-1])
	}
	switch {
	case worse > bound:
		return regressed, change
	case iqr/mb > bound && !allBetter:
		return unresolved, change
	case 10*wins >= 9*pairs && math.Abs(mc-mb) > iqr && better(mc, mb):
		return improved, change
	}
	return unchanged, change
}

// compare judges every (workload, end-to-end metric) pair of two sets of
// untraced run records with BENCHMARK.json's bounds. It returns false on a
// regression, on any digest that differs between runs of the same workload
// and seed, and on a higher failure ratio.
func compare(w io.Writer, bf *benchmarkFile, base, cur []*record) bool {
	ok := true
	fp := map[fingerprint]bool{}
	for _, r := range base {
		fp[r.Fingerprint] = true
	}
	for _, r := range cur {
		if !fp[r.Fingerprint] {
			fmt.Fprintf(w, "warning: machine fingerprints differ (%+v); timings may not be comparable\n", r.Fingerprint)
			break
		}
	}

	// Outputs: the same workload and seed must give the same digests.
	type ws struct {
		workload string
		seed     int64
	}
	want := map[ws]map[string]string{}
	for _, r := range base {
		want[ws{r.Workload, r.Seed}] = r.Digests
	}
	for _, r := range cur {
		ref, found := want[ws{r.Workload, r.Seed}]
		if !found {
			continue
		}
		for _, k := range sortedKeys(ref) {
			if r.Digests[k] != ref[k] {
				fmt.Fprintf(w, "DIGEST %s seed %d %s: %s, parent %s\n", r.Workload, r.Seed, k, short(r.Digests[k]), short(ref[k]))
				ok = false
			}
		}
	}

	group := func(rs []*record) map[string][]*record {
		g := map[string][]*record{}
		for _, r := range rs {
			if !r.Trace {
				g[r.Workload] = append(g[r.Workload], r)
			}
		}
		return g
	}
	gb, gc := group(base), group(cur)
	fmt.Fprintf(w, "%-14s %-17s %12s %23s %12s %23s %8s  %s\n",
		"workload", "metric", "parent", "[q1, q3]", "new", "[q1, q3]", "Δ", "verdict")
	for _, wl := range sortedKeys(gb) {
		rb, rc := gb[wl], gc[wl]
		if len(rc) == 0 {
			fmt.Fprintf(w, "%-14s: no new runs\n", wl)
			ok = false
			continue
		}
		failRatio := func(rs []*record) float64 {
			var a, f int
			for _, r := range rs {
				a, f = a+r.Attempted, f+r.Failed
			}
			return float64(f) / float64(max(a, 1))
		}
		if fb, fc := failRatio(rb), failRatio(rc); fc > fb {
			fmt.Fprintf(w, "%-14s FAILURES %.4f of operations failed, parent %.4f\n", wl, fc, fb)
			ok = false
		}
		for _, m := range bf.EndToEnd {
			vals := func(rs []*record) []float64 {
				var out []float64
				for _, r := range rs {
					if v, found := r.Metrics[m.Name]; found {
						out = append(out, v.Value)
					}
				}
				return out
			}
			vb, vc := vals(rb), vals(rc)
			if len(vb) == 0 || len(vc) == 0 {
				fmt.Fprintf(w, "%-14s %-17s missing in %d parent / %d new runs\n", wl, m.Name, len(rb)-len(vb), len(rc)-len(vc))
				ok = false
				continue
			}
			v, change := judge(vb, vc, m.Better == "lower", m.Bound)
			if v == regressed {
				ok = false
			}
			qb, qc := quartilesOf(vb), quartilesOf(vc)
			fmt.Fprintf(w, "%-14s %-17s %12.4g [%10.4g, %10.4g] %12.4g [%10.4g, %10.4g] %+7.1f%%  %s\n",
				wl, m.Name, qb.Median, qb.Q1, qb.Q3, qc.Median, qc.Q1, qc.Q3, 100*change, v)
		}
	}
	return ok
}
