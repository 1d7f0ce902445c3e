package lsq

import (
	"errors"
	"math/rand"
	"testing"

	"dmdc/internal/energy"
	"dmdc/internal/stats"
)

func testAgeTable() *AgeTable {
	return Must(NewAgeTable(AgeTableConfig{TableSize: 2048, LQSize: 256}, new(energy.Model)))
}

func TestAgeTableConfigValidate(t *testing.T) {
	if err := (AgeTableConfig{TableSize: 2048, LQSize: 256}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []AgeTableConfig{
		{TableSize: 1000, LQSize: 10},
		{TableSize: 0, LQSize: 10},
		{TableSize: 64, LQSize: 0},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config accepted: %+v", c)
		}
	}
}

func TestAgeTableRejectsBadConfig(t *testing.T) {
	_, err := NewAgeTable(AgeTableConfig{}, new(energy.Model))
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("bad config: err = %v, want *ConfigError", err)
	}
}

func TestAgeTableDetectsViolation(t *testing.T) {
	a := testAgeTable()
	ld := newLoad(10, 0x100, 8)
	issueLoad(a, ld, 5)
	st := newStore(3, 0x100, 8)
	r := a.StoreResolve(st)
	if r == nil {
		t.Fatal("violation not detected")
	}
	if r.FromAge != 4 {
		t.Errorf("replay from %d, want everything younger than the store (4)", r.FromAge)
	}
}

func TestAgeTableSafeYoungStore(t *testing.T) {
	a := testAgeTable()
	issueLoad(a, newLoad(5, 0x100, 8), 2)
	if r := a.StoreResolve(newStore(9, 0x100, 8)); r != nil {
		t.Error("store younger than recorded load replayed")
	}
}

func TestAgeTableBitmapScreensNarrowAccesses(t *testing.T) {
	a := testAgeTable()
	ld := newLoad(10, 0x104, 4) // high half of the quad word
	issueLoad(a, ld, 5)
	if r := a.StoreResolve(newStore(3, 0x100, 4)); r != nil {
		t.Error("disjoint sub-quad-word footprints replayed")
	}
	if r := a.StoreResolve(newStore(3, 0x104, 4)); r == nil {
		t.Error("overlapping footprints missed")
	}
}

func TestAgeTableHashAliasing(t *testing.T) {
	cfg := AgeTableConfig{TableSize: 2, LQSize: 64}
	a := Must(NewAgeTable(cfg, new(energy.Model)))
	ld := newLoad(10, 0x108, 8)
	issueLoad(a, ld, 5)
	st := newStore(3, 0x100, 8)
	if a.hash.index(0x100) != a.hash.index(0x108) {
		t.Skip("addresses did not alias")
	}
	// The table cannot distinguish: an aliasing false replay is the
	// design's fundamental approximation.
	if r := a.StoreResolve(st); r == nil {
		t.Error("aliasing entry should conservatively replay")
	}
}

func TestAgeTableRecoverClamp(t *testing.T) {
	a := testAgeTable()
	wp := newLoad(100, 0x100, 8)
	wp.WrongPath = true
	issueLoad(a, wp, 5)
	a.Recover(50)
	if r := a.StoreResolve(newStore(60, 0x100, 8)); r != nil {
		t.Error("clamped entry still triggered a replay")
	}
}

// Soundness: like DMDC, the age table must never miss a true violation.
func TestAgeTableSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 2000; trial++ {
		sc := makeScenario(rng, 3+rng.Intn(10))
		want := sc.groundTruthViolation()
		if want == 0 {
			continue
		}
		a := testAgeTable()
		ops := sc.memOps()
		order := make([]int, len(ops))
		for i := range order {
			order[i] = i
		}
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				if sc.ops[order[j]].when < sc.ops[order[i]].when {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		var got uint64
		for _, idx := range order {
			m := ops[idx]
			if m.IsLoad {
				m.Issued = true
				a.LoadIssue(m)
			} else if r := a.StoreResolve(m); r != nil && (got == 0 || r.FromAge < got) {
				got = r.FromAge
			}
		}
		// Replaying from store.Age+1 covers every younger load, so the
		// true violator is always squashed and re-executed: got ≤ want.
		if got == 0 || got > want {
			t.Fatalf("trial %d: violation at %d not covered (replay from %d)", trial, want, got)
		}
	}
}

func TestAgeTableReport(t *testing.T) {
	a := testAgeTable()
	issueLoad(a, newLoad(10, 0x100, 8), 5)
	a.StoreResolve(newStore(3, 0x100, 8))
	a.StoreCommit(newStore(3, 0x100, 8))
	a.InstCommit(3)
	if r := a.LoadCommit(newLoad(10, 0x100, 8)); r != nil {
		t.Error("age table must not replay at commit")
	}
	a.Invalidate(0x100) // no-op
	a.Tick()
	a.Squash(5)
	s := stats.NewSet()
	a.Report(s)
	if s.Get("agetable_searches") != 1 || s.Get("replays_total") != 1 {
		t.Errorf("accounting wrong: %v", s)
	}
	if a.Name() != "agetable-2048" {
		t.Errorf("name = %q", a.Name())
	}
	if a.LoadCapacity() != 256 {
		t.Error("capacity wrong")
	}
}

// Regression: the entry bitmap must accumulate across every load sharing
// the entry, not be replaced by the youngest. The entry's age field only
// tracks the youngest recorded load, but older loads are still live; a
// replaced bitmap let a store overlapping only the older load's bytes
// pass the footprint screen — a missed violation.
func TestAgeTableBitmapAccumulatesAcrossLoads(t *testing.T) {
	a := testAgeTable()
	issueLoad(a, newLoad(10, 0x100, 4), 5) // older load, low half
	issueLoad(a, newLoad(20, 0x104, 4), 6) // younger load, high half
	// The store overlaps only the older load's footprint. With the bitmap
	// replaced by the younger load's, this was silently declared safe.
	if r := a.StoreResolve(newStore(3, 0x100, 4)); r == nil {
		t.Fatal("store overlapping the older load's bytes missed")
	}
	// Disjoint footprints must still screen: a store to the second half
	// of a different quad word stays silent.
	if r := a.StoreResolve(newStore(3, 0x304, 4)); r != nil {
		t.Error("untouched quad word replayed")
	}
}

// Scripted squash recovery: wrong-path loads pollute the table, the
// squash leaves their entries in place, and recovery clamps ages. The
// leftovers may cost spurious replays but must never hide a violation
// against a surviving or refetched load.
func TestAgeTableSquashRecoveryScripted(t *testing.T) {
	a := testAgeTable()
	// Correct-path load, then two wrong-path loads past the mispredicted
	// branch (age 11): one sharing the survivor's quad word, one on an
	// address only the wrong path touched.
	issueLoad(a, newLoad(10, 0x200, 8), 5)
	wp1 := newLoad(15, 0x200, 8)
	wp1.WrongPath = true
	issueLoad(a, wp1, 6)
	wp2 := newLoad(16, 0x210, 8)
	wp2.WrongPath = true
	issueLoad(a, wp2, 6)
	// Branch recovery squashes everything younger than age 11.
	a.Squash(12)
	a.Recover(11)

	// Never a missed violation: a store older than the surviving load and
	// overlapping its bytes must still replay.
	if r := a.StoreResolve(newStore(3, 0x200, 8)); r == nil {
		t.Fatal("violation against the surviving load missed after recovery")
	} else if r.FromAge != 4 {
		t.Errorf("replay from %d, want 4 (everything younger than the store)", r.FromAge)
	}

	// The wrong-path-only leftover is clamped to the recovery age; a
	// store older than the clamp still sees age 11 recorded and replays
	// spuriously. That is the design's accepted approximation — assert it
	// stays a replay (conservative), not a miss, and that the clamp
	// bounds it.
	if r := a.StoreResolve(newStore(5, 0x210, 8)); r == nil {
		t.Error("clamped wrong-path leftover should conservatively replay for older stores")
	}
	// Stores younger than the clamp are safe: the leftover cannot name a
	// younger load anymore.
	if r := a.StoreResolve(newStore(12, 0x210, 8)); r != nil {
		t.Error("store younger than the recovery clamp replayed")
	}

	// Ages recycle after the squash: a refetched load reuses age 13 on the
	// wrong-path-polluted quad word. A store slotting between survivor and
	// refetch must still be caught.
	issueLoad(a, newLoad(13, 0x210, 8), 9)
	if r := a.StoreResolve(newStore(12, 0x210, 8)); r == nil {
		t.Fatal("violation against the refetched load missed")
	}
}
