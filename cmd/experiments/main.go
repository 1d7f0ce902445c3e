// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints a consolidated report (optionally writing
// it to a file).
//
// Deterministic simulation makes results exactly reproducible, so a
// persistent cache (-cache-dir, or the DMDC_CACHE environment variable)
// lets warm re-runs skip every simulation they have already done.
//
// Usage:
//
//	experiments                     # full suite, 1M insts per benchmark
//	experiments -insts 200000       # quicker, noisier
//	experiments -only figure4       # one artifact
//	experiments -out report.txt -v
//	experiments -cache-dir ~/.cache/dmdc -only figure4   # warm re-runs are instant
//	experiments -cache-dir ~/.cache/dmdc -cache-clear
//
// Sampled mode (-sample-intervals) runs one cell as a checkpointed
// interval-sampling job instead of full detailed simulation: the gaps are
// fast-forwarded functionally (warming caches, predictor, and filters) and
// only the intervals run in detail, in-process or across -backends:
//
//	experiments -sample-intervals 20 -interval-insts 10000 -insts 100000000 \
//	    -sample-bench gcc -sample-policy dmdc
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux for -serve
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dmdc/internal/config"
	"dmdc/internal/dserve"
	"dmdc/internal/experiments"
	"dmdc/internal/resultcache"
	"dmdc/internal/soundness"
	"dmdc/internal/telemetry"
)

func main() {
	var (
		insts      = flag.Uint64("insts", 1_000_000, "instructions per benchmark")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file (analyse with `go tool pprof`)")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file at exit")
		par        = flag.Int("par", 0, "parallel simulations (0 = GOMAXPROCS; with -backends, 0 = every cell at once, bounded by -inflight per backend; sampled mode: concurrent intervals, 0 = 4)")
		only       = flag.String("only", "", "single artifact: "+strings.Join(experiments.ArtifactNames(), ", "))
		out        = flag.String("out", "", "also write the report to this file")
		verbose    = flag.Bool("v", false, "print per-run progress")
		benches    = flag.String("benchmarks", "", "comma-separated benchmark subset")
		csvKey     = flag.String("csv", "", "dump one run key's raw results as CSV to stdout (see -csvkeys)")
		csvKeys    = flag.Bool("csvkeys", false, "list valid -csv run keys and exit")
		cacheDir   = flag.String("cache-dir", os.Getenv("DMDC_CACHE"), "persistent result cache directory (default $DMDC_CACHE; empty disables)")
		cacheClear = flag.Bool("cache-clear", false, "clear the result cache and exit")
		sound      = flag.Bool("soundness", false, "verify every commit of every run against a lockstep in-order oracle (bypasses the cache)")
		faultsFl   = flag.String("faults", "", "inject a deterministic fault campaign into every run, e.g. invburst=8@50,storedelay=40@7,spurious=97")
		wdCycles   = flag.Uint64("watchdog-cycles", 0, "fail a run when no instruction commits for this many cycles (0 = default budget)")
		telDir     = flag.String("telemetry-dir", "", "export per-job time series (CSV/JSON) and Chrome traces to this directory (enables telemetry)")
		telStride  = flag.Uint64("telemetry-stride", 0, "telemetry sample interval in cycles (0 = default; setting it enables telemetry)")
		serveAddr  = flag.String("serve", "", "serve a live observability endpoint on this address (/telemetry, expvar at /debug/vars, pprof at /debug/pprof; enables telemetry)")
		backendsFl = flag.String("backends", "", "comma-separated dmdcd base URLs; shard every simulation across them instead of running in-process (e.g. http://h1:8321,http://h2:8321)")
		inflight   = flag.Int("inflight", 0, "with -backends: concurrent jobs per backend (0 = 4)")
		tenant     = flag.String("tenant", "", "with -backends: identify as this tenant (X-DMDC-Tenant header) for fair-share admission on the servers")

		sampleIntervals = flag.Int("sample-intervals", 0, "sampled mode: fast-forward between this many detailed intervals instead of simulating -insts in full (runs one cell; see -sample-bench/-sample-config/-sample-policy)")
		intervalInsts   = flag.Uint64("interval-insts", 10_000, "sampled mode: detailed instructions per interval")
		warmup          = flag.Uint64("warmup", 0, "sampled mode: warmed fast-forward instructions before each interval (0 = warm the whole gap)")
		sampleBench     = flag.String("sample-bench", "gcc", "sampled mode: benchmark")
		sampleConfig    = flag.String("sample-config", "config2", "sampled mode: machine configuration")
		samplePolicy    = flag.String("sample-policy", "dmdc", "sampled mode: canonical policy name")
	)
	flag.Parse()

	stop, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		die(err)
	}
	profileStop = stop
	defer stop()

	if *cacheClear {
		if *cacheDir == "" {
			die(fmt.Errorf("-cache-clear needs -cache-dir or DMDC_CACHE"))
		}
		c, err := resultcache.Open(*cacheDir)
		if err != nil {
			die(err)
		}
		defer c.Close()
		if err := c.Clear(); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "cleared result cache at %s\n", c.Dir())
		return
	}

	opts := experiments.Options{
		Insts:          *insts,
		Parallelism:    *par,
		Soundness:      *sound,
		WatchdogCycles: *wdCycles,
	}
	if *faultsFl != "" {
		spec, err := soundness.ParseFaultSpec(*faultsFl)
		if err != nil {
			die(err)
		}
		opts.Faults = spec
	}
	if *benches != "" {
		bs, err := experiments.ParseBenchmarks(*benches)
		if err != nil {
			die(err)
		}
		opts.Benchmarks = bs
	}
	if *verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	if *telDir != "" || *telStride > 0 || *serveAddr != "" {
		opts.Telemetry = &telemetry.Config{Stride: *telStride}
		opts.TelemetryDir = *telDir
	}
	var disp *dserve.Dispatcher
	if *backendsFl != "" {
		var backends []experiments.Backend
		for _, u := range strings.Split(*backendsFl, ",") {
			if u = strings.TrimSpace(u); u != "" {
				backends = append(backends, dserve.NewRemote(u, nil).WithTenant(*tenant))
			}
		}
		disp, err = dserve.NewDispatcher(dserve.DispatcherConfig{
			Backends:           backends,
			PerBackendInflight: *inflight,
		})
		if err != nil {
			die(err)
		}
		opts.Backend = disp
	}
	if *sampleIntervals > 0 {
		runSampled(sampledArgs{
			intervals: *sampleIntervals, intervalInsts: *intervalInsts, warmup: *warmup,
			bench: *sampleBench, machine: *sampleConfig, policy: *samplePolicy,
			insts: *insts, par: *par, backend: disp, out: *out,
			soundness: *sound, faults: *faultsFl, watchdog: *wdCycles,
		})
		return
	}

	if *cacheDir != "" {
		c, err := resultcache.Open(*cacheDir)
		if err != nil {
			die(err)
		}
		// Close's error is dropped: entries are never synced, and one
		// lost to a failed close costs a recompute.
		defer c.Close()
		opts.Cache = c
	}
	suite, err := experiments.NewSuite(opts)
	if err != nil {
		die(err)
	}
	if *serveAddr != "" {
		serveLive(*serveAddr, suite)
	}

	if *csvKeys {
		for _, k := range experiments.RunKeys() {
			fmt.Println(k)
		}
		return
	}
	if *csvKey != "" {
		if err := suite.WriteCSV(os.Stdout, *csvKey); err != nil {
			die(err)
		}
		checkRuns(suite)
		return
	}

	start := time.Now()
	var report string
	if *only == "" {
		report = suite.Report()
	} else if report, err = suite.Artifact(*only); err != nil {
		die(err)
	}
	fmt.Println(report)
	if suite.Telemetry() != nil {
		fmt.Println(suite.TelemetryReport())
	}
	fmt.Fprintf(os.Stderr, "elapsed: %s — %s\n",
		time.Since(start).Round(time.Millisecond), runSummary(suite, *cacheDir != ""))
	if disp != nil {
		printBackendStats(disp)
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			die(err)
		}
	}
	checkRuns(suite)
}

// sampledArgs packages the sampled-mode flag values.
type sampledArgs struct {
	intervals     int
	intervalInsts uint64
	warmup        uint64
	bench         string
	machine       string
	policy        string
	insts         uint64
	par           int
	backend       *dserve.Dispatcher
	out           string
	// Forwarded into the base job so SampleSpec.Validate rejects them
	// rather than the run silently dropping them.
	soundness bool
	faults    string
	watchdog  uint64
}

// runSampled executes one sampled-mode logical run (DESIGN.md §14) and
// prints the aggregated SampledResult as canonical JSON: one functional
// pass checkpoints each sample point, and the detailed intervals run as
// content-addressed jobs — in-process, or sharded across -backends.
func runSampled(a sampledArgs) {
	m, err := config.ByName(a.machine)
	if err != nil {
		die(err)
	}
	sp := experiments.SampleSpec{
		Job: experiments.JobSpec{Machine: m, Policy: a.policy, Benchmark: a.bench, Insts: a.insts,
			Soundness: a.soundness, Faults: a.faults, WatchdogCycles: a.watchdog},
		Intervals:     a.intervals,
		IntervalInsts: a.intervalInsts,
		Warmup:        a.warmup,
		Parallelism:   a.par,
	}
	if a.backend != nil {
		sp.Backend = a.backend
	}
	start := time.Now()
	r, err := experiments.RunSampled(context.Background(), sp)
	if err != nil {
		die(err)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		die(err)
	}
	b = append(b, '\n')
	os.Stdout.Write(b)
	fmt.Fprintf(os.Stderr, "elapsed: %s — %d detailed insts of %d (%.1f%%), estimated %d cycles\n",
		time.Since(start).Round(time.Millisecond), r.MeasuredInsts, r.TotalInsts,
		100*float64(r.MeasuredInsts)/float64(r.TotalInsts), r.EstimatedCycles)
	if a.backend != nil {
		printBackendStats(a.backend)
	}
	if a.out != "" {
		if err := os.WriteFile(a.out, b, 0o644); err != nil {
			die(err)
		}
	}
}

// printBackendStats reports the dispatcher's counters on stderr.
func printBackendStats(d *dserve.Dispatcher) {
	st := d.Stats()
	fmt.Fprintf(os.Stderr, "backends: %d dispatched, %d retries\n", st.Dispatched, st.Retries)
}

// serveLive starts the observability endpoint in the background: the
// telemetry registry at /telemetry (?job=KEY for one job's full series),
// matrix progress as the "dmdc" expvar at /debug/vars, and the stock
// net/http/pprof handlers at /debug/pprof/. Best-effort: a dead listener
// warns and the run continues.
func serveLive(addr string, suite *experiments.Suite) {
	expvar.Publish("dmdc", expvar.Func(func() any {
		hits, misses, werrs := suite.CacheStats()
		progress := map[string]any{
			"simulated":          suite.Simulated(),
			"cache_hits":         hits,
			"cache_misses":       misses,
			"cache_write_errors": werrs,
		}
		if reg := suite.Telemetry(); reg != nil {
			progress["telemetry_jobs"] = len(reg.Keys())
		}
		return progress
	}))
	http.Handle("/telemetry", suite.Telemetry())
	fmt.Fprintf(os.Stderr, "serving live telemetry on http://%s/telemetry (expvar /debug/vars, pprof /debug/pprof)\n", addr)
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -serve:", err)
		}
	}()
}

// runSummary renders the simulated-vs-cached counters for the run; cached
// says whether a result cache was in use.
func runSummary(s *experiments.Suite, cached bool) string {
	hits, misses, werrs := s.CacheStats()
	line := fmt.Sprintf("%d simulations run", s.Simulated())
	if cached {
		line += fmt.Sprintf(", cache: %d hits / %d misses", hits, misses)
		if werrs > 0 {
			line += fmt.Sprintf(" (%d write errors)", werrs)
		}
	}
	return line
}

// checkRuns exits nonzero if any simulation in the matrix failed.
func checkRuns(s *experiments.Suite) {
	if err := s.Err(); err != nil {
		die(err)
	}
}

// profileStop flushes any active profiles; die runs it before exiting so a
// failed run still leaves usable profiles behind (os.Exit skips defers).
var profileStop = func() {}

// startProfiles starts CPU profiling and returns an idempotent stop
// function that also snapshots the heap profile, matching the -cpuprofile
// and -memprofile conventions of `go test`.
func startProfiles(cpu, mem string) (func(), error) {
	cpuDone := func() {}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuDone = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		cpuDone()
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize the live set before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
		}
	}, nil
}

func die(err error) {
	profileStop()
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
