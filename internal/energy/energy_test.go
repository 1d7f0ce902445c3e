package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestComponentString(t *testing.T) {
	if CompLQ.String() != "lq" || CompClock.String() != "clock" {
		t.Error("component names wrong")
	}
	if !strings.Contains(Component(99).String(), "99") {
		t.Error("invalid component name should include number")
	}
}

func TestCostScaling(t *testing.T) {
	// CAM search cost grows with entries, sublinearly (segmented match
	// lines), and linearly with width.
	small := CAMSearch(48, AddressBits)
	big := CAMSearch(96, AddressBits)
	if ratio := big / small; ratio < 1.5 || ratio > 2.0 {
		t.Errorf("CAM cost should grow sublinearly with entries: ratio %v", ratio)
	}
	wide := CAMSearch(48, 2*AddressBits)
	if math.Abs(wide/small-2) > 1e-9 {
		t.Errorf("CAM cost should double with width: %v vs %v", small, wide)
	}
	// Port accesses cost a sizable fraction of a search but less than one.
	if acc := CAMAccess(96, AddressBits); acc >= big || acc < 0.2*big {
		t.Errorf("CAM port access cost %v implausible vs search %v", acc, big)
	}
	// A CAM search of a sizable queue must dwarf a small indexed access —
	// this is the premise of the whole paper.
	if CAMSearch(96, AddressBits)/RAMAccess(2048, 5) < 5 {
		t.Errorf("CAM search should be much more expensive than table indexing: %v vs %v",
			CAMSearch(96, AddressBits), RAMAccess(2048, 5))
	}
	if RegisterOp(16) <= 0 || RAMAccess(1024, 8) <= 0 {
		t.Error("costs must be positive")
	}
}

func TestModelAccumulation(t *testing.T) {
	m := NewModel(100)
	m.Add(CompLQ, 2.0)
	m.Add(CompLQ, 3.0)
	for i := 0; i < 4; i++ {
		m.Add(CompSQ, 2.5)
	}
	b := m.Snapshot()
	if got := b.Of(CompLQ); got != 5.0 {
		t.Errorf("LQ energy = %v, want 5", got)
	}
	if got := b.Counts[CompLQ]; got != 2 {
		t.Errorf("LQ events = %v, want 2", got)
	}
	if got := b.Counts[CompSQ]; got != 4 {
		t.Errorf("SQ events = %v, want 4", got)
	}
	if got := b.Total(); got != 15.0 {
		t.Errorf("total = %v, want 15", got)
	}
}

func TestModelTick(t *testing.T) {
	m := NewModel(100)
	m.Tick()
	m.Tick()
	if b := m.Snapshot(); b.Cycles != 2 {
		t.Errorf("cycles = %d", b.Cycles)
	}
	if m.Snapshot().Of(CompClock) <= 0 {
		t.Error("clock energy should accumulate per tick")
	}
	// Zero core size disables the per-cycle cost but still counts cycles.
	z := NewModel(0)
	z.Tick()
	if b := z.Snapshot(); b.Of(CompClock) != 0 || b.Cycles != 1 {
		t.Error("zero-size model should tick without clock energy")
	}
}

// The zero Model is the disabled one.
func TestDisabled(t *testing.T) {
	m := new(Model)
	if m.Enabled() {
		t.Error("disabled model reports enabled")
	}
	m.Add(CompLQ, 5)
	m.Add(CompSQ, 5)
	m.Tick()
	if b := m.Snapshot(); b.Total() != 0 || b.Cycles != 0 || b.Counts[CompLQ] != 0 {
		t.Error("disabled model accumulated state")
	}
}

func TestLQEnergy(t *testing.T) {
	m := NewModel(10)
	m.Add(CompLQ, 100)
	m.Add(CompCheckTable, 2)
	m.Add(CompHashQueue, 3)
	m.Add(CompYLA, 1)
	m.Add(CompROB, 500) // not LQ functionality
	if got := m.Snapshot().LQEnergy(); got != 106 {
		t.Errorf("LQ functionality energy = %v, want 106", got)
	}
}

func TestSnapshot(t *testing.T) {
	m := NewModel(10)
	m.Add(CompLQ, 7)
	m.Tick()
	b := m.Snapshot()
	m.Add(CompLQ, 100) // must not affect snapshot
	if b.Of(CompLQ) != 7 {
		t.Errorf("snapshot LQ = %v, want 7", b.Of(CompLQ))
	}
	if b.Cycles != 1 {
		t.Errorf("snapshot cycles = %d", b.Cycles)
	}
	if b.Total() <= 7 {
		t.Error("snapshot total should include clock energy")
	}
	if b.LQEnergy() != 7 {
		t.Errorf("snapshot LQ energy = %v", b.LQEnergy())
	}
	out := b.String()
	if !strings.Contains(out, "lq") || !strings.Contains(out, "total") {
		t.Errorf("breakdown string missing fields:\n%s", out)
	}
}

func TestSavings(t *testing.T) {
	if got := Savings(100, 5); math.Abs(got-0.95) > 1e-12 {
		t.Errorf("savings = %v, want 0.95", got)
	}
	if got := Savings(0, 5); got != 0 {
		t.Errorf("savings with zero base = %v", got)
	}
	if got := Savings(100, 120); math.Abs(got+0.2) > 1e-12 {
		t.Errorf("negative savings = %v, want -0.2", got)
	}
}

// Property: model total equals the sum of per-component energies.
func TestModelTotalConsistencyProperty(t *testing.T) {
	f := func(events []uint8) bool {
		m := NewModel(50)
		var want float64
		for _, ev := range events {
			c := Component(int(ev) % NumComponents)
			e := float64(ev%7) + 0.5
			m.Add(c, e)
			want += e
		}
		b := m.Snapshot()
		var sum float64
		for c := 0; c < NumComponents; c++ {
			sum += b.Of(Component(c))
		}
		return math.Abs(sum-want) < 1e-6 && math.Abs(b.Total()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
