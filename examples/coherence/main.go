// Coherence study: DMDC under external invalidation traffic (the paper's
// Table 6 methodology). Invalidations at increasing rates are injected
// into a run; each one opens a write-serialization checking window bounded
// by the cache-line-interleaved YLA set and sets INV bits in the checking
// table. The design absorbs moderate traffic (≤10 per 1000 cycles) with
// little cost and starts to strain at 100.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"dmdc"
)

func main() {
	bench := "gcc"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	machine := dmdc.Config2()
	const insts = 500_000
	run := func(policy dmdc.PolicyKind, invRate float64) *dmdc.Result {
		r, err := dmdc.Run(context.Background(), dmdc.Request{
			Machine: machine, Benchmark: bench, Policy: policy, Insts: insts,
			Invalidations: invRate,
		})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	// Baseline (no coherence modeled, as in the paper) for slowdown.
	base := run(dmdc.PolicyBaseline, 0)

	fmt.Printf("benchmark %s on %s, %d insts — DMDC under invalidation traffic\n\n",
		bench, machine.Name, insts)
	fmt.Printf("%-12s %12s %14s %14s %12s %10s\n",
		"inv/1Kcyc", "injected", "% cyc checking", "false repl/M", "inv repl/M", "slow %")
	var ref float64
	for _, rate := range []float64{0, 1, 10, 100} {
		r := run(dmdc.PolicyDMDC, rate)
		chk := 100 * r.Stats.Get("checking_cycles") / r.Stats.Get("policy_cycles")
		falseRepl := (r.Stats.Get("core_replays_total") -
			r.Stats.Get("core_replay_true_violation")) / float64(r.Insts) * 1e6
		invRepl := r.Stats.Get("core_replay_invalidation") / float64(r.Insts) * 1e6
		slow := 100 * (float64(r.Cycles)/float64(base.Cycles) - 1)
		if rate == 0 {
			ref = falseRepl
		}
		rel := 1.0
		if ref > 0 {
			rel = falseRepl / ref
		}
		fmt.Printf("%-12g %12.0f %14.1f %14.1f %12.1f %10.2f   (rel false: %.2fx)\n",
			rate, r.Stats.Get("inv_injected"), chk, falseRepl, invRepl, slow, rel)
	}
	fmt.Println("\nWrite serialization is preserved conservatively: the first load to an")
	fmt.Println("invalidated line promotes INV→WRT; a second in-flight load replays.")
}
