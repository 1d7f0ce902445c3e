package dserve

import (
	"math"
	"testing"
)

// fill enqueues n placeholder jobs for tq.
func fill(d *drr, tq *tenantQ, n int) {
	for i := 0; i < n; i++ {
		d.push(tq, &jobState{tenant: tq.name})
	}
}

// TestDRRWeightedRatio pins the acceptance criterion deterministically:
// under saturating load at weights 3:1, served ratios stay within 10% of
// 3:1 over every window after the first scheduling round.
func TestDRRWeightedRatio(t *testing.T) {
	d := newDRR()
	heavy := d.tenant("heavy", 3, 0, 0)
	light := d.tenant("light", 1, 0, 0)
	fill(d, heavy, 600)
	fill(d, light, 600)

	var servedHeavy, servedLight float64
	for i := 0; i < 800; i++ {
		st, tq := d.pop()
		if st == nil {
			t.Fatalf("pop %d: scheduler stalled with %d jobs queued", i, d.queued)
		}
		tq.running-- // simulate instant completion
		switch tq {
		case heavy:
			servedHeavy++
		case light:
			servedLight++
		}
		// At every scheduling-round boundary (weight sum = 4 pops) the
		// cumulative ratio must hold; mid-round prefixes may transiently
		// overshoot by the in-progress quantum.
		if (i+1)%4 == 0 && servedLight > 0 {
			ratio := servedHeavy / servedLight
			if math.Abs(ratio-3) > 0.3 {
				t.Fatalf("after %d pops: served %g:%g (ratio %.2f), want 3:1 within 10%%",
					i+1, servedHeavy, servedLight, ratio)
			}
		}
	}
	if servedHeavy != 600 {
		t.Fatalf("heavy served %g of 600 before light drained its share", servedHeavy)
	}
}

// TestDRRNoStarvation: even a weight-1 tenant against a much heavier one
// is served at least once per scheduling round — the gap between
// consecutive grants is bounded by the round length (sum of weights).
func TestDRRNoStarvation(t *testing.T) {
	d := newDRR()
	heavy := d.tenant("heavy", 64, 0, 0)
	light := d.tenant("light", 1, 0, 0)
	fill(d, heavy, 1000)
	fill(d, light, 20)

	gap, maxGap := 0, 0
	for i := 0; i < 1000; i++ {
		st, tq := d.pop()
		if st == nil {
			break
		}
		tq.running--
		if tq == light {
			if gap > maxGap {
				maxGap = gap
			}
			gap = 0
		} else {
			gap++
		}
		if len(light.queue) == 0 {
			break
		}
	}
	if round := 64 + 1; maxGap > round {
		t.Fatalf("light tenant waited %d pops between grants, want <= round length %d", maxGap, round)
	}
	if light.served == 0 {
		t.Fatal("light tenant starved entirely")
	}
}

// TestDRRQuotaBound: a tenant at its running quota is skipped (and
// forfeits its deficit) while others keep being served; it becomes
// eligible again when a running job completes.
func TestDRRQuotaBound(t *testing.T) {
	d := newDRR()
	capped := d.tenant("capped", 3, 1, 0)
	free := d.tenant("free", 1, 0, 0)
	fill(d, capped, 10)
	fill(d, free, 10)

	st, tq := d.pop()
	if st == nil || tq != capped {
		t.Fatalf("first pop: got tenant %v, want capped (cursor starts there)", tq)
	}
	// capped now has running=1 == quota: the next pops must all be free's.
	for i := 0; i < 5; i++ {
		st, tq = d.pop()
		if st == nil {
			t.Fatalf("pop with free work queued returned nil")
		}
		if tq != free {
			t.Fatalf("pop %d while capped is quota-bound: got %q", i, tq.name)
		}
		tq.running--
	}
	// Completion frees the quota slot; capped is eligible again.
	capped.running--
	for i := 0; i < 10; i++ {
		st, tq = d.pop()
		if tq == capped {
			return
		}
		tq.running--
	}
	t.Fatal("capped tenant never served after its quota freed up")
}

// TestDRRQuotaDeadlock: when every queued tenant is quota-bound, pop
// returns nil rather than spinning.
func TestDRRQuotaDeadlock(t *testing.T) {
	d := newDRR()
	tq := d.tenant("only", 1, 1, 0)
	fill(d, tq, 5)
	if st, _ := d.pop(); st == nil {
		t.Fatal("first pop should serve")
	}
	if st, _ := d.pop(); st != nil {
		t.Fatal("pop served past the running quota")
	}
}
