package lsq

import (
	"math/rand"
	"sort"
	"testing"

	"dmdc/internal/energy"
	"dmdc/internal/isa"
)

// decodeScenario turns fuzz bytes into a memory-ordering episode: two
// bytes per operation (capped at 16 ops), drawn over the same tiny
// address pool makeScenario uses so collisions stay frequent.
//
//	byte 0: bit 0 — load/store; bits 2-3 — size index; bits 4-6 — slot
//	byte 1: execution priority (ties broken by program order)
//
// Execution times are the rank order of (priority, index), so every op
// gets a unique time and "issued before resolved" is unambiguous.
func decodeScenario(data []byte) (scenario, bool) {
	nOps := len(data) / 2
	if nOps < 2 {
		return scenario{}, false
	}
	if nOps > 16 {
		nOps = 16
	}
	sizes := []uint8{1, 2, 4, 8}
	order := make([]int, nOps)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return data[2*order[a]+1] < data[2*order[b]+1]
	})
	when := make([]uint64, nOps)
	for rank, idx := range order {
		when[idx] = uint64(rank)
	}
	var sc scenario
	for i := 0; i < nOps; i++ {
		b := data[2*i]
		size := sizes[(b>>2)&3]
		addr := uint64(0x1000) + uint64((b>>4)&7)*8
		addr -= addr % uint64(size)
		sc.ops = append(sc.ops, schedOp{
			age:    uint64(i + 1),
			isLoad: b&1 == 0,
			addr:   addr,
			size:   size,
			when:   when[i],
		})
	}
	return sc, true
}

// encodeScenario is decodeScenario's inverse, used to build the seed
// corpus from randomized scenarios. Requires whens in 0..n-1 (as
// makeScenario produces).
func encodeScenario(sc scenario) []byte {
	out := make([]byte, 0, 2*len(sc.ops))
	for _, op := range sc.ops {
		var b byte
		if !op.isLoad {
			b |= 1
		}
		switch op.size {
		case 2:
			b |= 1 << 2
		case 4:
			b |= 2 << 2
		case 8:
			b |= 3 << 2
		}
		b |= byte((op.addr>>3)&7) << 4
		out = append(out, b, byte(op.when))
	}
	return out
}

// drivePolicy replays the scenario against any Policy the way the core
// would — execution events in time order, then commits in age order —
// and returns the age of the first replay demand (0 if none). Unlike
// driveDMDC it tolerates resolve-time replays (the CAM detects there).
func drivePolicy(p Policy, sc scenario) uint64 {
	ops := sc.memOps()
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := &sc.ops[order[a]], &sc.ops[order[b]]
		return x.when < y.when || (x.when == y.when && x.age < y.age)
	})
	for _, idx := range order {
		m := ops[idx]
		if m.IsLoad {
			m.Issued = true
			p.LoadDispatch(m)
			p.LoadIssue(m)
		} else if r := p.StoreResolve(m); r != nil {
			return r.FromAge
		}
	}
	for _, m := range ops {
		p.InstCommit(m.Age)
		if m.IsLoad {
			if r := p.LoadCommit(m); r != nil {
				return r.FromAge
			}
		} else {
			p.StoreCommit(m)
		}
	}
	return 0
}

// fuzzPolicies builds the DMDC variants (global, local, tiny hash table,
// coherence, checking queue) whose commit-ordered soundness contract the
// fuzzer checks. The CAM baseline detects at store-resolve in time order
// and gets the exact per-resolve check instead (checkCAMExact).
func fuzzPolicies() map[string]Policy {
	small := testDMDCConfig()
	small.TableSize = 4
	local := testDMDCConfig()
	local.Local = true
	coh := testDMDCConfig()
	coh.Coherence = true
	queue := testDMDCConfig()
	queue.TableSize = 0
	queue.QueueSize = 64
	return map[string]Policy{
		"dmdc":       Must(NewDMDC(testDMDCConfig(), new(energy.Model))),
		"dmdc-local": Must(NewDMDC(local, new(energy.Model))),
		"dmdc-tiny":  Must(NewDMDC(small, new(energy.Model))),
		"dmdc-coh":   Must(NewDMDC(coh, new(energy.Model))),
		"dmdc-queue": Must(NewDMDC(queue, new(energy.Model))),
	}
}

// checkCAMExact replays the scenario against the CAM baseline and asserts
// its exact contract at every store resolve: it replays iff a younger
// overlapping load already issued, and from the oldest such load.
func checkCAMExact(t *testing.T, sc scenario) {
	t.Helper()
	c := Must(NewCAM(CAMConfig{LQSize: 64}, new(energy.Model)))
	ops := sc.memOps()
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := &sc.ops[order[a]], &sc.ops[order[b]]
		return x.when < y.when || (x.when == y.when && x.age < y.age)
	})
	for _, idx := range order {
		m := ops[idx]
		if m.IsLoad {
			m.Issued = true
			c.LoadDispatch(m)
			c.LoadIssue(m)
			continue
		}
		st := sc.ops[idx]
		var expect uint64
		for _, l := range sc.ops {
			if !l.isLoad || l.age <= st.age || l.when >= st.when {
				continue
			}
			if isa.Overlap(st.addr, st.size, l.addr, l.size) &&
				(expect == 0 || l.age < expect) {
				expect = l.age
			}
		}
		r := c.StoreResolve(m)
		switch {
		case expect == 0 && r != nil:
			t.Fatalf("cam: false positive at %d for store %d\nops: %+v", r.FromAge, st.age, sc.ops)
		case expect != 0 && r == nil:
			t.Fatalf("cam: missed violation at %d for store %d\nops: %+v", expect, st.age, sc.ops)
		case expect != 0 && r.FromAge != expect:
			t.Fatalf("cam: replayed %d, expected oldest violator %d\nops: %+v", r.FromAge, expect, sc.ops)
		}
	}
}

// FuzzPolicySoundness decodes arbitrary bytes into a scheduling episode
// and asserts the safety half of every policy's contract: whenever a
// genuine ordering violation exists (an older overlapping store resolved
// after a load issued), the policy demands a replay from the violating
// load's age or older. False replays are fine; missed violations are
// silent data corruption.
func FuzzPolicySoundness(f *testing.F) {
	rng := rand.New(rand.NewSource(424242))
	for i := 0; i < 32; i++ {
		f.Add(encodeScenario(makeScenario(rng, 3+rng.Intn(12))))
	}
	// Hand-picked shapes: store-after-load on one address, interleaved
	// sizes, and an all-loads episode (must never replay anything).
	f.Add([]byte{0x01, 0x01, 0x00, 0x00}) // store resolves after the load issued
	f.Add([]byte{0x0d, 0x02, 0x04, 0x00, 0x11, 0x01})
	f.Add([]byte{0x00, 0x00, 0x10, 0x01, 0x20, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, ok := decodeScenario(data)
		if !ok {
			return
		}
		want := sc.groundTruthViolation()
		for name, p := range fuzzPolicies() {
			got := drivePolicy(p, sc)
			if want != 0 && (got == 0 || got > want) {
				t.Fatalf("%s: true violation at age %d, policy replayed from %d\nops: %+v",
					name, want, got, sc.ops)
			}
		}
		checkCAMExact(t, sc)
	})
}

// TestScenarioCodecRoundTrip pins the encode/decode pair the seed corpus
// depends on: decoding an encoded scenario reproduces it exactly.
func TestScenarioCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		sc := makeScenario(rng, 2+rng.Intn(15))
		got, ok := decodeScenario(encodeScenario(sc))
		if !ok {
			t.Fatal("round trip rejected a valid scenario")
		}
		if len(got.ops) != len(sc.ops) {
			t.Fatalf("op count changed: %d -> %d", len(sc.ops), len(got.ops))
		}
		for j := range sc.ops {
			if got.ops[j] != sc.ops[j] {
				t.Fatalf("op %d changed: %+v -> %+v", j, sc.ops[j], got.ops[j])
			}
		}
	}
}
