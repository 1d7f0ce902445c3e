package lsq

import (
	"math/rand"
	"testing"

	"dmdc/internal/energy"
	"dmdc/internal/isa"
)

// scenario is a randomized memory-ordering episode: K memory operations in
// program order with a random execution schedule. It is replayed against a
// policy the same way the core drives one (issue events in time order,
// then commits in age order).
type scenario struct {
	ops []schedOp
}

type schedOp struct {
	age    uint64
	isLoad bool
	addr   uint64
	size   uint8
	// time at which the load issues / the store's address resolves
	when uint64
}

// makeScenario draws a random episode over a tiny address pool so that
// collisions are frequent. Execution times are unique, so "issued before
// resolved" is unambiguous.
func makeScenario(rng *rand.Rand, nOps int) scenario {
	sizes := []uint8{1, 2, 4, 8}
	times := rng.Perm(nOps)
	var sc scenario
	for i := 0; i < nOps; i++ {
		size := sizes[rng.Intn(len(sizes))]
		addr := uint64(0x1000) + uint64(rng.Intn(8))*8
		addr = addr - addr%uint64(size)
		sc.ops = append(sc.ops, schedOp{
			age:    uint64(i + 1),
			isLoad: rng.Intn(5) < 3,
			addr:   addr,
			size:   size,
			when:   uint64(times[i]),
		})
	}
	return sc
}

// groundTruthViolation returns the age of the oldest load that truly
// violated ordering: an older store to an overlapping address resolved
// only after the load issued. Zero if none.
func (sc scenario) groundTruthViolation() uint64 {
	for _, l := range sc.ops {
		if !l.isLoad {
			continue
		}
		for _, s := range sc.ops {
			if s.isLoad || s.age >= l.age {
				continue
			}
			if isa.Overlap(s.addr, s.size, l.addr, l.size) && l.when < s.when {
				return l.age
			}
		}
	}
	return 0
}

// memOps materializes MemOps with honest oracle fields, including
// SafeAtIssue (no older store unresolved at the load's issue time).
func (sc scenario) memOps() []*MemOp {
	out := make([]*MemOp, len(sc.ops))
	for i, op := range sc.ops {
		m := &MemOp{Age: op.age, IsLoad: op.isLoad, Addr: op.addr, Size: op.size}
		if op.isLoad {
			m.IssueCycle = op.when
			m.SafeAtIssue = true
			for _, s := range sc.ops {
				if !s.isLoad && s.age < op.age && s.when > op.when {
					m.SafeAtIssue = false
					break
				}
			}
		} else {
			m.ResolveCycle = op.when
		}
		out[i] = m
	}
	return out
}

// driveDMDC replays the scenario against a DMDC policy the way the core
// would, and returns the age of the first replayed load (0 if none).
func driveDMDC(d *DMDC, sc scenario) uint64 {
	ops := sc.memOps()
	// Phase 1: execution events in time order (stable by age for ties:
	// older op wins the tie, matching oldest-first issue).
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			a, b := &sc.ops[order[i]], &sc.ops[order[j]]
			if b.when < a.when || (b.when == a.when && b.age < a.age) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, idx := range order {
		m := ops[idx]
		if m.IsLoad {
			m.Issued = true
			d.LoadDispatch(m)
			d.LoadIssue(m)
		} else if r := d.StoreResolve(m); r != nil {
			panic("DMDC must not replay at resolve")
		}
	}
	// Phase 2: commit in age order.
	for _, m := range ops {
		d.InstCommit(m.Age)
		if m.IsLoad {
			if r := d.LoadCommit(m); r != nil {
				return r.FromAge
			}
		} else {
			d.StoreCommit(m)
		}
	}
	return 0
}

// TestDMDCSoundnessProperty: whenever a genuine ordering violation exists,
// DMDC replays the violating load or something older (the refetch then
// re-executes the violator after the store has drained). Missing a real
// violation would be a correctness bug in the scheme; extra (false)
// replays are expected and fine.
func TestDMDCSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	variants := []func() *DMDC{
		func() *DMDC { return Must(NewDMDC(testDMDCConfig(), new(energy.Model))) },
		func() *DMDC {
			cfg := testDMDCConfig()
			cfg.Local = true
			return Must(NewDMDC(cfg, new(energy.Model)))
		},
		func() *DMDC {
			cfg := testDMDCConfig()
			cfg.TableSize = 4 // heavy hash conflicts must still be sound
			return Must(NewDMDC(cfg, new(energy.Model)))
		},
		func() *DMDC {
			cfg := testDMDCConfig()
			cfg.Coherence = true
			return Must(NewDMDC(cfg, new(energy.Model)))
		},
		func() *DMDC {
			cfg := testDMDCConfig()
			cfg.TableSize = 0
			cfg.QueueSize = 64 // large enough to never overflow here
			return Must(NewDMDC(cfg, new(energy.Model)))
		},
	}
	for trial := 0; trial < 3000; trial++ {
		sc := makeScenario(rng, 3+rng.Intn(12))
		want := sc.groundTruthViolation()
		if want == 0 {
			continue
		}
		for vi, mk := range variants {
			got := driveDMDC(mk(), sc)
			if got == 0 || got > want {
				t.Fatalf("trial %d variant %d: true violation at age %d, DMDC replayed %d\nops: %+v",
					trial, vi, want, got, sc.ops)
			}
		}
	}
}

// TestCAMSoundnessProperty: the baseline detects exactly the ground-truth
// violations at store-resolve time.
func TestCAMSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	for trial := 0; trial < 3000; trial++ {
		sc := makeScenario(rng, 3+rng.Intn(12))
		want := sc.groundTruthViolation()
		c := Must(NewCAM(CAMConfig{LQSize: 64}, new(energy.Model)))
		ops := sc.memOps()
		// Time-ordered event replay.
		order := make([]int, len(ops))
		for i := range order {
			order[i] = i
		}
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				a, b := &sc.ops[order[i]], &sc.ops[order[j]]
				if b.when < a.when || (b.when == a.when && b.age < a.age) {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		for _, idx := range order {
			m := ops[idx]
			if m.IsLoad {
				m.Issued = true
				c.LoadDispatch(m)
				c.LoadIssue(m)
				continue
			}
			// Ground truth for THIS resolve: the oldest younger load that
			// already issued to an overlapping address.
			st := sc.ops[idx]
			var expect uint64
			for _, l := range sc.ops {
				if !l.isLoad || l.age <= st.age || l.when >= st.when {
					continue
				}
				if isa.Overlap(st.addr, st.size, l.addr, l.size) {
					if expect == 0 || l.age < expect {
						expect = l.age
					}
				}
			}
			r := c.StoreResolve(m)
			switch {
			case expect == 0 && r != nil:
				t.Fatalf("trial %d: CAM false positive at %d for store %d", trial, r.FromAge, st.age)
			case expect != 0 && r == nil:
				t.Fatalf("trial %d: CAM missed violation at %d for store %d", trial, expect, st.age)
			case expect != 0 && r.FromAge != expect:
				t.Fatalf("trial %d: CAM replayed %d, expected oldest violator %d", trial, r.FromAge, expect)
			}
		}
		_ = want
	}
}
