// Energy sweep: the Figure 4 scalability argument on a workload subset.
// As the machine grows (config1 → config3), the associative LQ's share of
// processor energy grows, so replacing it with DMDC's indexed structures
// saves more — while the slowdown stays negligible. Run with a list of
// benchmark names, or no arguments for a representative mix.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"dmdc"
	"dmdc/internal/energy"
)

func main() {
	benches := []string{"gzip", "gcc", "swim", "art"}
	if len(os.Args) > 1 {
		benches = os.Args[1:]
	}
	const insts = 400_000
	run := func(machine dmdc.Machine, bench string, policy dmdc.PolicyKind) *dmdc.Result {
		r, err := dmdc.Run(context.Background(), dmdc.Request{
			Machine: machine, Benchmark: bench, Policy: policy, Insts: insts,
		})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	fmt.Printf("%-10s %-8s %10s %10s %12s %12s %10s\n",
		"config", "bench", "base IPC", "dmdc IPC", "LQ saved %", "net saved %", "slow %")
	for _, machine := range []dmdc.Machine{dmdc.Config1(), dmdc.Config2(), dmdc.Config3()} {
		for _, bench := range benches {
			base := run(machine, bench, dmdc.PolicyBaseline)
			dm := run(machine, bench, dmdc.PolicyDMDC)

			fmt.Printf("%-10s %-8s %10.2f %10.2f %12.1f %12.1f %10.2f\n",
				machine.Name, bench, base.IPC(), dm.IPC(),
				100*energy.Savings(base.Energy.LQEnergy(), dm.Energy.LQEnergy()),
				100*energy.Savings(base.Energy.Total(), dm.Energy.Total()),
				100*(float64(dm.Cycles)/float64(base.Cycles)-1))
		}
		fmt.Println()
	}
	fmt.Println("Bigger windows need bigger (costlier) associative LQs; DMDC's cost is")
	fmt.Println("flat, so its net savings grow with the machine (paper Figure 4).")
}
