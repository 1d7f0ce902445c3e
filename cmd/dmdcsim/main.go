// Command dmdcsim runs one simulation: a benchmark on a machine
// configuration under a chosen load-queue policy, printing timing, energy,
// and policy statistics.
//
// Usage:
//
//	dmdcsim -bench gcc -config config2 -policy dmdc -insts 1000000
//	dmdcsim -bench swim -policy dmdc-local -inv 10
//	dmdcsim -bench mcf -policy yla -stats
//	dmdcsim -bench gcc -policy dmdc -oracle -faults invburst=8@50,spurious=97
//	dmdcsim -bench gcc -policy unsound -oracle -faults storedelay=40@3
//	dmdcsim -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"dmdc"
	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/energy"
	"dmdc/internal/experiments"
	"dmdc/internal/lsq"
	"dmdc/internal/soundness"
	"dmdc/internal/telemetry"
	"dmdc/internal/trace"
	"dmdc/internal/tracefile"
)

func main() {
	var (
		bench    = flag.String("bench", "gcc", "benchmark name (see -list)")
		machine  = flag.String("config", "config2", "machine configuration: config1, config2, or config3")
		policy   = flag.String("policy", "dmdc", "LQ policy: baseline (alias cam), yla, dmdc, dmdc-local, agetable, value-based (alias value), value-svw, plus CLI specials bloom, dmdc-queue, unsound")
		insts    = flag.Uint64("insts", 1_000_000, "committed instructions to simulate")
		invRate  = flag.Float64("inv", 0, "external invalidations per 1000 cycles")
		queue    = flag.Int("queue", 16, "checking-queue entries (dmdc-queue policy)")
		bloomSz  = flag.Int("bloom", 256, "bloom filter size (bloom policy)")
		traceIn  = flag.String("trace", "", "replay a recorded trace file instead of a synthetic benchmark")
		sqFilter = flag.Bool("sqfilter", false, "enable the Section 3 store-side age filter")
		oracle   = flag.Bool("oracle", false, "verify every commit against a lockstep in-order oracle")
		faultsFl = flag.String("faults", "", "fault-injection campaign, e.g. invburst=8@50,storedelay=40@7,alias=4096,spurious=97")
		wdCycles = flag.Uint64("watchdog-cycles", 0, "fail when no instruction commits for this many cycles (0 = default budget)")
		ptFrom   = flag.Uint64("ptrace-from", 0, "pipeline-trace window start (committed inst)")
		ptTo     = flag.Uint64("ptrace-to", 0, "pipeline-trace window end (0 = off)")
		telOut   = flag.String("telemetry-out", "", "export telemetry as PREFIX.csv, PREFIX.series.json, and PREFIX.trace.json (enables telemetry)")
		telStrid = flag.Uint64("telemetry-stride", 0, "telemetry sample interval in cycles (0 = default; setting it enables telemetry)")
		showAll  = flag.Bool("stats", false, "print every statistic")
		list     = flag.Bool("list", false, "list benchmarks and exit")
		saveCkpt = flag.String("save-checkpoint", "", "after the run, save the simulator state to this file (fails closed when the run used options the checkpoint format cannot capture)")
		restCkpt = flag.String("restore-checkpoint", "", "restore simulator state from this file before the run (-insts then continues from the restored point)")
		ffInsts  = flag.Uint64("fastforward", 0, "functionally execute this many instructions (warming caches, predictor, and filters) before detailed simulation")
	)
	flag.Parse()

	if *list {
		for _, p := range trace.Profiles() {
			fmt.Printf("%-10s %s\n", p.Name, p.Class)
		}
		return
	}

	m, err := config.ByName(*machine)
	if err != nil {
		fatal(err)
	}
	// makeWorkload is called once for the simulated stream and, when the
	// oracle is on, a second time for the independent reference stream.
	makeWorkload := func() (core.Workload, error) {
		if *traceIn != "" {
			f, err := os.Open(*traceIn)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return tracefile.NewReader(f)
		}
		prof, err := trace.ByName(*bench)
		if err != nil {
			return nil, err
		}
		return core.FromGenerator(trace.NewGenerator(prof)), nil
	}
	workload, err := makeWorkload()
	if err != nil {
		fatal(err)
	}
	em := energy.NewModel(m.CoreSize())
	pol, err := newPolicy(*policy, m, em, *queue, *bloomSz)
	if err != nil {
		fatal(err)
	}

	var opts []core.Option
	if *invRate != 0 {
		opts = append(opts, core.WithInvalidations(*invRate))
	}
	if *sqFilter {
		opts = append(opts, core.WithSQFilter())
	}
	if *ptTo > *ptFrom {
		opts = append(opts, core.WithPipelineTrace(os.Stderr, *ptFrom, *ptTo))
	}
	if *oracle {
		ref, err := makeWorkload()
		if err != nil {
			fatal(err)
		}
		opts = append(opts, core.WithOracle(ref))
	}
	if *faultsFl != "" {
		spec, err := soundness.ParseFaultSpec(*faultsFl)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, core.WithFaults(spec))
	}
	if *wdCycles > 0 {
		opts = append(opts, core.WithWatchdog(*wdCycles))
	}
	var sampler *telemetry.Sampler
	if *telOut != "" || *telStrid > 0 {
		sampler = telemetry.New(telemetry.Config{Stride: *telStrid})
		opts = append(opts, core.WithTelemetry(sampler))
	}
	sim, err := core.NewWithWorkload(m, workload, pol, em, opts...)
	if err != nil {
		fatal(err)
	}
	if *restCkpt != "" {
		blob, err := os.ReadFile(*restCkpt)
		if err != nil {
			fatal(err)
		}
		if err := sim.RestoreCheckpoint(blob); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dmdcsim: restored %s (%d bytes)\n", *restCkpt, len(blob))
	}
	if *ffInsts > 0 {
		if err := sim.FastForward(*ffInsts, true); err != nil {
			fatal(err)
		}
	}
	r, err := sim.Run(*insts)
	if err != nil {
		var se *soundness.SoundnessError
		if errors.As(err, &se) {
			fmt.Fprintln(os.Stderr, "dmdcsim: SOUNDNESS VIOLATION")
		}
		fatal(err)
	}

	fmt.Println(r)
	fmt.Printf("IPC           %8.3f\n", r.IPC())
	fmt.Printf("mispredicts   %8.2f per 1K insts\n",
		r.Stats.Get("bpred_mispredicts")/float64(r.Insts)*1000)
	fmt.Printf("replays       %8.2f per 1M insts\n",
		r.Stats.Get("core_replays_total")/float64(r.Insts)*1e6)
	fmt.Printf("LQ energy     %8.1f (%.2f%% of total)\n",
		r.Energy.LQEnergy(), 100*r.Energy.LQEnergy()/r.Energy.Total())
	if *oracle {
		fmt.Printf("oracle        %8.0f commits verified, zero divergences\n",
			r.Stats.Get("oracle_checked_insts"))
	}
	fmt.Println("\nEnergy breakdown:")
	fmt.Println(r.Energy.String())
	if *showAll {
		fmt.Println("All statistics:")
		fmt.Println(r.Stats.String())
	}
	if sampler != nil {
		reportTelemetry(sampler.Snapshot(), *telOut)
	}
	if *saveCkpt != "" {
		blob, err := sim.SaveCheckpoint()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*saveCkpt, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dmdcsim: wrote checkpoint %s (%d bytes)\n", *saveCkpt, len(blob))
	}
}

// reportTelemetry prints the commit-stall attribution summary and, with a
// -telemetry-out prefix, writes the CSV/JSON/Chrome-trace exports.
func reportTelemetry(sn telemetry.Snapshot, outPrefix string) {
	fmt.Printf("\nTelemetry (stride %d, %d samples", sn.Stride, len(sn.Samples))
	if sn.Dropped > 0 {
		fmt.Printf(", %d dropped", sn.Dropped)
	}
	fmt.Println("):")
	counts, frac := sn.StallBreakdown()
	last, ok := sn.Last()
	if ok && last.Cycle > 0 {
		fmt.Printf("  stall cycles  %d of %d (%.1f%%)\n",
			counts.Total(), last.Cycle, 100*float64(counts.Total())/float64(last.Cycle))
		for c := 0; c < telemetry.NumStallCauses; c++ {
			fmt.Printf("    %-28s %10d  (%.1f%% of cycles)\n",
				telemetry.StallCause(c).StatName(), counts[c], 100*frac[c])
		}
		if disp := last.DispatchStalls; disp.Total() > 0 {
			fmt.Printf("  dispatch hazard stalls  %d\n", disp.Total())
			for h := 0; h < telemetry.NumDispatchHazards; h++ {
				if disp[h] > 0 {
					fmt.Printf("    %-28s %10d\n", telemetry.DispatchHazard(h).StatName(), disp[h])
				}
			}
		}
	}
	if outPrefix == "" {
		return
	}
	written, err := sn.WriteFiles(outPrefix)
	for _, path := range written {
		fmt.Fprintln(os.Stderr, "dmdcsim: wrote", path)
	}
	if err != nil {
		fatal(err)
	}
}

// newPolicy builds the selected load-queue policy. Canonical policy
// names (and the cam/value aliases) resolve through dmdc.ParsePolicy and
// the shared experiments factory table, so this CLI constructs exactly
// what the library facade and the dmdcd server construct. Three CLI-only
// specials stay local: "bloom" and "dmdc-queue" expose sweep knobs
// (-bloom, -queue) that canonical policies pin, and "unsound" wraps the
// CAM baseline in a replay-suppressing shim — a deliberately broken
// policy used to demonstrate the -oracle flag catching real
// memory-ordering violations (pair it with -faults storedelay=40@3).
func newPolicy(name string, m config.Machine, em *energy.Model, queue, bloomSz int) (lsq.Policy, error) {
	switch name {
	case "bloom":
		return lsq.NewCAM(lsq.CAMConfig{LQSize: m.LQSize, Filter: lsq.FilterBloom, BloomSize: bloomSz}, em)
	case "dmdc-queue":
		return experiments.DMDCQueueFactory(queue)(m, em)
	case "unsound":
		inner, err := lsq.NewCAM(lsq.CAMConfig{LQSize: m.LQSize}, em)
		if err != nil {
			return nil, err
		}
		return soundness.NewUnsound(inner), nil
	}
	kind, err := dmdc.ParsePolicy(name)
	if err != nil {
		return nil, fmt.Errorf("unknown policy %q (canonical names plus bloom, dmdc-queue, unsound)", name)
	}
	f, err := experiments.PolicyFactoryByName(kind.String())
	if err != nil {
		return nil, err
	}
	return f(m, em)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmdcsim:", err)
	os.Exit(1)
}
