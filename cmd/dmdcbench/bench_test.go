package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/energy"
	"dmdc/internal/experiments"
	"dmdc/internal/lsq"
	"dmdc/internal/trace"
)

// tiny shrinks every workload so the whole benchmark runs in seconds; the
// code paths are the ones a full run takes.
var tiny = sizes{
	CellInsts: 5_000, WindowSpan: 3_000, OracleInsts: 2_000,
	MatrixInsts: 300, WarmPasses: 1,
	JobInsts: 2_000, WarmRounds: 1,
	SampledInsts: 400_000, Intervals: 4, IntervalInsts: 1_000,
	SetupReps: 1, MicroReps: 1, MicroRep: time.Millisecond, MicroCalls: 5, LSQInsts: 3_000,
}

func readBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloads runs every workload untraced and traced at tiny sizes: no
// operation may fail, each run must emit exactly the metrics BENCHMARK.json
// lists for its mode, with their units, tracing must not change an output,
// and the traced run must leave a Chrome trace_event file.
func TestWorkloads(t *testing.T) {
	bf := readBenchmark(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			// A second per phase lets every phase cover each of the workload's outputs.
			o := runOpts{seed: 3, seconds: time.Second, sz: tiny, workDir: dir, traceDir: filepath.Join(dir, "trace")}
			plain, err := runWorkload(context.Background(), w, o)
			if err != nil {
				t.Fatal(err)
			}
			o.trace = true
			traced, err := runWorkload(context.Background(), w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*record{plain, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("trace %v: %d of %d operations failed: %q", r.Trace, r.Failed, r.Attempted, r.Errors)
				}
			}
			want := map[string]string{}
			for _, m := range bf.EndToEnd {
				want[m.Name] = m.Unit
			}
			checkMetrics(t, plain.Metrics, want)
			want = map[string]string{}
			for _, m := range bf.PerLayer {
				want[m.Name] = m.Unit
			}
			checkMetrics(t, traced.Metrics, want)
			if len(plain.Digests) == 0 || !reflect.DeepEqual(plain.Digests, traced.Digests) {
				t.Errorf("traced digests %v differ from untraced %v", traced.Digests, plain.Digests)
			}

			b, err := os.ReadFile(filepath.Join(o.traceDir, w.name+".spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans struct {
				TraceEvents []struct {
					Name string          `json:"name"`
					Ph   string          `json:"ph"`
					Ts   *float64        `json:"ts"`
					Args json.RawMessage `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &spans); err != nil {
				t.Fatalf("spans: %v", err)
			}
			complete := 0
			for _, e := range spans.TraceEvents {
				if e.Ph == "X" {
					complete++
					if e.Name == "" || e.Ts == nil || !bytes.Contains(e.Args, []byte(`"id"`)) {
						t.Errorf("malformed span %+v", e)
					}
				}
			}
			if complete == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", name)
		case m.Unit != unit:
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not listed in BENCHMARK.json", name)
		}
	}
}

// TestCommittedDigests checks that every workload has pinned outputs.
func TestCommittedDigests(t *testing.T) {
	d, err := committedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(d[w.name]) == 0 {
			t.Errorf("no committed digests for %s", w.name)
		}
	}
}

// TestLSQReplay checks that every policy's replayed hook stream returns
// exactly the replays the recording saw, and that the check bites.
func TestLSQReplay(t *testing.T) {
	c2 := config.Config2()
	gcc, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	returns := 0
	for _, p := range lsqPolicies {
		rec, _, err := recordLSQ(c2, gcc, p, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		f, err := experiments.PolicyFactoryByName(p)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() lsq.Policy {
			pol, err := f(c2, energy.NewModel(c2.CoreSize()))
			if err != nil {
				t.Fatal(err)
			}
			return pol
		}
		n, err := rec.replay(fresh())
		if err != nil || n != len(rec.calls) {
			t.Fatalf("%s: replayed %d of %d calls: %v", p, n, len(rec.calls), err)
		}
		for i := range rec.calls {
			if c := &rec.calls[i]; c.hasRet {
				returns++
				c.ret.FromAge++ // plant a mismatch
				if _, err := rec.replay(fresh()); err == nil {
					t.Errorf("%s: replay accepted a tampered recording", p)
				}
				break
			}
		}
	}
	if returns == 0 {
		t.Error("no policy demanded a replay; the comparison went untested")
	}
}

// TestWorkloadProbeNilWrongPath checks that the traced workload wrapper
// hands the core a nil interface, not a typed nil, when the wrapped
// workload has no wrong-path stream: the core stalls fetch on nil.
func TestWorkloadProbeNilWrongPath(t *testing.T) {
	gcc, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	w := newWorkloadProbe(noWrongPath{core.FromGenerator(trace.NewGenerator(gcc))})
	if src := w.WrongPath(0x1000, true, 1); src != nil {
		t.Fatalf("WrongPath returned %#v, want a nil interface", src)
	}
	live := newWorkloadProbe(core.FromGenerator(trace.NewGenerator(gcc)))
	for _, in := range stream(gcc, 1_000) {
		if in.Op.IsBranch() {
			if live.WrongPath(in.PC, !in.Taken, 1) == nil {
				t.Fatalf("no wrong path at branch %#x", in.PC)
			}
			return
		}
	}
	t.Fatal("no branch in the stream")
}

type noWrongPath struct{ core.Workload }

func (noWrongPath) WrongPath(uint64, bool, uint64) core.InstSource { return nil }

// TestCompare plants a regression, a gain and a digest mismatch.
func TestCompare(t *testing.T) {
	bf := readBenchmark(t)
	runs := func(scale float64, out string) []*record {
		var rs []*record
		for i := 0; i < 10; i++ {
			r := &record{Workload: "cell-detail", Seed: int64(i), Attempted: 10,
				Metrics: map[string]metric{}, Digests: map[string]string{"cell/x": out}}
			noise := 1 + 0.001*float64((i*7)%10)
			for _, m := range bf.EndToEnd {
				v := 100 * noise * scale
				if m.Better == "higher" {
					v = 100 * noise / scale
				}
				r.Metrics[m.Name] = metric{v, m.Unit}
			}
			rs = append(rs, r)
		}
		return rs
	}
	base := runs(1, "a")
	for _, c := range []struct {
		name    string
		cur     []*record
		ok      bool
		verdict string
	}{
		{"same", runs(1, "a"), true, unchanged},
		{"slower", runs(1.5, "a"), false, regressed},
		{"faster", runs(0.5, "a"), true, improved},
		{"wrong output", runs(1, "b"), false, "DIGEST"},
	} {
		var out strings.Builder
		if ok := compare(&out, bf, base, c.cur); ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: ok=%v, want %v with %q in\n%s", c.name, ok, c.ok, c.verdict, out.String())
		}
	}
}

// TestQuantile pins the quartiles to Python's statistics.quantiles.
func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(s, p); got != want {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
}
