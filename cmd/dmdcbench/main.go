// Command dmdcbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints its metrics; every output of the
// program under test is checked against a digest. See README.md.
//
// Usage:
//
//	dmdcbench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	dmdcbench -workload NAME -update
//	dmdcbench -compare BASE_GLOB NEW_GLOB
//
// With -trace 1 the run measures the workload untraced and then traced,
// runs the per-layer microbenchmarks, writes NAME.spans.json (Chrome
// trace_event) and NAME.pprof under -trace-dir, and prints the per-layer
// metrics instead of the end-to-end ones. The last line of standard output
// is a JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

//go:embed testdata/digests.json
var committedJSON []byte

// flags are the command-line settings.
type flags struct {
	workload, traceDir, workDir, out, digests, benchmark string
	seed                                                 int64
	seconds                                              float64
	trace                                                int
	update, compare                                      bool
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "", "workload to run: cell-detail, paper-matrix, service-fleet or sampled-long")
	flag.Int64Var(&f.seed, "seed", 0, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&f.seconds, "seconds", 15, "how long each measured phase runs")
	flag.IntVar(&f.trace, "trace", 0, "1 adds a traced phase and reports per-layer metrics")
	flag.StringVar(&f.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes its spans and CPU profile")
	flag.StringVar(&f.workDir, "work-dir", ".bench_build/work", "parent of the run's scratch directories")
	flag.StringVar(&f.out, "out", "", "also write the full run record (digests, fingerprint, details) to this file")
	flag.BoolVar(&f.update, "update", false, "rewrite this workload's committed digests from a seed-0 run")
	flag.StringVar(&f.digests, "digests", "cmd/dmdcbench/testdata/digests.json", "committed digest file that -update rewrites")
	flag.BoolVar(&f.compare, "compare", false, "compare the run records of two globs: -compare BASE_GLOB NEW_GLOB")
	flag.StringVar(&f.benchmark, "benchmark", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, f, flag.Args())
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmdcbench:", err)
		if errors.Is(err, errFailed) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// errFailed marks a completed run whose outputs failed their checks, or a
// comparison that found a regression: the report is printed and the
// process exits 1. Other errors mean the harness itself failed (exit 2).
var errFailed = errors.New("check failed")

func run(ctx context.Context, f flags, args []string) error {
	if f.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two globs, BASE_GLOB NEW_GLOB")
		}
		bf, err := readBenchmarkFile(f.benchmark)
		if err != nil {
			return err
		}
		base, err := readRecords(args[0])
		if err != nil {
			return err
		}
		cur, err := readRecords(args[1])
		if err != nil {
			return err
		}
		if !compare(os.Stdout, bf, base, cur) {
			return fmt.Errorf("comparison: %w", errFailed)
		}
		return nil
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if f.trace != 0 && f.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", f.trace)
	}
	if f.seconds < 0 {
		return fmt.Errorf("-seconds must not be negative")
	}
	w, err := workloadByName(f.workload)
	if err != nil {
		return err
	}
	committed, err := committedDigests()
	if err != nil {
		return err
	}
	o := runOpts{
		seed: f.seed, seconds: time.Duration(f.seconds * float64(time.Second)), trace: f.trace == 1,
		traceDir: f.traceDir, workDir: f.workDir, sz: defaultSizes,
	}
	if (!w.seeded || f.seed == 0) && !f.update {
		if o.committed = committed[w.name]; o.committed == nil {
			return fmt.Errorf("no committed digests for %s; run with -update", w.name)
		}
	}
	rec, err := runWorkload(ctx, w, o)
	if err != nil {
		return err
	}
	if f.update {
		if f.seed != 0 || !rec.Correct {
			return fmt.Errorf("-update needs a correct seed-0 run (errors: %q)", rec.Errors)
		}
		committed[w.name] = rec.Digests
		if err := writeJSON(f.digests, committed); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "updated %d digests of %s in %s\n", len(rec.Digests), w.name, f.digests)
	}
	if f.out != "" {
		if err := writeJSON(f.out, rec); err != nil {
			return err
		}
	}
	printRecord(rec)
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d operations failed: %w", w.name, rec.Failed, rec.Attempted, errFailed)
	}
	return nil
}

// printRecord writes a readable summary to stderr and the result object as
// the last line of stdout.
func printRecord(rec *record) {
	fmt.Fprintf(os.Stderr, "%s seed %d trace %v: %d attempted, %d failed\n", rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "  error:", e)
	}
	for _, k := range sortedKeys(rec.Metrics) {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(rec.Details) {
		q := rec.Details[k]
		fmt.Fprintf(os.Stderr, "  detail %-25s median %.6g [%.6g, %.6g] n=%d\n", k, q.Median, q.Q1, q.Q3, q.N)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Println(string(line))
}

func committedDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(committedJSON, &d); err != nil {
		return nil, fmt.Errorf("committed digests: %w", err)
	}
	if d == nil {
		d = map[string]map[string]string{}
	}
	return d, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fingerprint identifies the machine and build a run was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp.Commit += "+dirty"
				}
			}
		}
	}
	return fp
}
