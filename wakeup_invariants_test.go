package dmdc_test

// The issue scheduler's own instrument over the whole benchmark set. The
// golden suite pins cycle counts for three benchmarks; this matrix runs
// every benchmark, on the primary machine and on the IQ-pressure stress
// machine, with the structural invariant sweep on every cycle. A lost
// wakeup (a waiting instruction neither ready nor parked), a stale ready
// bit or a broken consumer list fails the run with a *dmdc.SoundnessError
// at the cycle it happens.

import (
	"fmt"
	"testing"

	"dmdc"
)

// wakeupInsts keeps 26 benchmarks × 2 machines affordable with a sweep on
// every cycle.
const wakeupInsts = 25_000

// TestWakeupInvariantMatrix runs every benchmark under DMDC on Config2 and
// on the IQ-pressure machine (tiny queues, thrashing L1D, slow memory: the
// regime where wakeup ordering is hardest) with an every-cycle sweep.
func TestWakeupInvariantMatrix(t *testing.T) {
	configs := []dmdc.Machine{dmdc.Config2(), dmdc.ConfigIQPressure()}
	for _, bench := range dmdc.Benchmarks() {
		for _, cfg := range configs {
			bench, cfg := bench, cfg
			t.Run(fmt.Sprintf("%s/%s", bench, cfg.Name), func(t *testing.T) {
				t.Parallel()
				_, err := simulate(cfg, bench, dmdc.PolicyDMDC, wakeupInsts,
					dmdc.WithInvariantChecking(1))
				if err != nil {
					t.Fatalf("invariant sweep failed: %v", err)
				}
			})
		}
	}
}
