// Quickstart: simulate one benchmark twice — once with the conventional
// associative load queue and once with DMDC — and compare performance and
// energy. This is the two-minute tour of the library's public surface:
// describe each simulation as a dmdc.Request (machine, benchmark, policy,
// budget) and run it with dmdc.Run.
package main

import (
	"context"
	"fmt"
	"log"

	"dmdc"
	"dmdc/internal/energy"
)

func main() {
	machine := dmdc.Config2()
	const bench = "gcc"
	const insts = 500_000
	run := func(policy dmdc.PolicyKind) *dmdc.Result {
		r, err := dmdc.Run(context.Background(), dmdc.Request{
			Machine: machine, Benchmark: bench, Policy: policy, Insts: insts,
		})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	// Conventional: a fully associative LQ searched by every store.
	rBase := run(dmdc.PolicyBaseline)
	// DMDC: YLA filtering + delayed checking through a 2K-entry hash table.
	rDMDC := run(dmdc.PolicyDMDC)

	fmt.Printf("benchmark %s on %s, %d instructions\n\n", bench, machine.Name, insts)
	fmt.Printf("%-22s %14s %14s\n", "", "conventional", "DMDC")
	fmt.Printf("%-22s %14.3f %14.3f\n", "IPC", rBase.IPC(), rDMDC.IPC())
	fmt.Printf("%-22s %14.0f %14.0f\n", "LQ energy", rBase.Energy.LQEnergy(), rDMDC.Energy.LQEnergy())
	fmt.Printf("%-22s %14.0f %14.0f\n", "total energy", rBase.Energy.Total(), rDMDC.Energy.Total())
	fmt.Printf("%-22s %14.0f %14.0f\n", "replays/Minst",
		rBase.Stats.Get("core_replays_total")/float64(rBase.Insts)*1e6,
		rDMDC.Stats.Get("core_replays_total")/float64(rDMDC.Insts)*1e6)

	slow := 100 * (float64(rDMDC.Cycles)/float64(rBase.Cycles) - 1)
	lqSave := 100 * energy.Savings(rBase.Energy.LQEnergy(), rDMDC.Energy.LQEnergy())
	totSave := 100 * energy.Savings(rBase.Energy.Total(), rDMDC.Energy.Total())
	fmt.Printf("\nDMDC removes the associative LQ: %.1f%% of LQ-functionality energy saved,\n", lqSave)
	fmt.Printf("%.1f%% processor-wide, at a %.2f%% performance cost.\n", totSave, slow)
	fmt.Printf("(The paper reports ~95%% LQ savings, 3-8%% net, ~0.3%% slowdown.)\n")
}
