package lsq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestYLABasic(t *testing.T) {
	y := NewYLAFile(1, QuadWordShift)
	// No loads issued: every store is safe.
	if !y.SafeStore(0x100, 5) {
		t.Error("store should be safe with no issued loads")
	}
	y.Update(0x100, 10)
	if y.SafeStore(0x200, 8) {
		t.Error("single register: older store must be unsafe after younger load issued anywhere")
	}
	if !y.SafeStore(0x200, 11) {
		t.Error("store younger than all issued loads must be safe")
	}
	if got := y.Age(0x300); got != 10 {
		t.Errorf("bank age = %d, want 10", got)
	}
}

func TestYLAUpdateMonotonic(t *testing.T) {
	y := NewYLAFile(1, QuadWordShift)
	y.Update(0x0, 10)
	y.Update(0x0, 5) // older load issues later: must not regress the register
	if got := y.Age(0x0); got != 10 {
		t.Errorf("age regressed to %d", got)
	}
}

func TestYLABanking(t *testing.T) {
	y := NewYLAFile(8, QuadWordShift)
	// Load to bank of address 0x0 only.
	y.Update(0x0, 100)
	// Store to a different quad word bank is safe even though it is older.
	if !y.SafeStore(0x8, 50) {
		t.Error("store to different bank should be safe")
	}
	// Store to the same bank is unsafe.
	if y.SafeStore(0x0, 50) {
		t.Error("store to same bank must be unsafe")
	}
	// Addresses 8 banks apart share a bank.
	if y.SafeStore(0x0+8*8, 50) {
		t.Error("aliased bank must be unsafe")
	}
}

func TestYLALineInterleaving(t *testing.T) {
	y := NewYLAFile(4, CacheLineShift)
	y.Update(0x00, 100)
	// Same 64-byte line, different quad word: same bank.
	if y.SafeStore(0x38, 50) {
		t.Error("same line must share a bank")
	}
	// Next line: different bank.
	if !y.SafeStore(0x40, 50) {
		t.Error("next line should map to a different bank")
	}
}

func TestYLAClamp(t *testing.T) {
	y := NewYLAFile(4, QuadWordShift)
	y.Update(0x0, 100)
	y.Update(0x8, 40)
	y.Clamp(60)
	if got := y.Age(0x0); got != 60 {
		t.Errorf("clamped age = %d, want 60", got)
	}
	if got := y.Age(0x8); got != 40 {
		t.Errorf("age older than clamp changed: %d", got)
	}
}

func TestYLAInvalidSize(t *testing.T) {
	for _, n := range []int{0, 3, -1, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d accepted", n)
				}
			}()
			NewYLAFile(n, QuadWordShift)
		}()
	}
}

// Soundness property: if a younger load issued to the same address, the
// store is NEVER classified safe, for any register count. (Missing a real
// hazard would be a correctness bug; extra conservatism is fine.)
func TestYLASoundnessProperty(t *testing.T) {
	f := func(nSel uint8, loadAddr uint32, storeDelta uint8, loadAge uint16) bool {
		sizes := [...]int{1, 2, 4, 8, 16}
		y := NewYLAFile(sizes[int(nSel)%len(sizes)], QuadWordShift)
		la := uint64(loadAddr &^ 7)
		age := uint64(loadAge) + 2
		y.Update(la, age)
		// A store older than the load, to the same quad word.
		storeAge := age - 1 - uint64(storeDelta)%age
		return !y.SafeStore(la, storeAge)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// More registers never filter less: banking only splits ages apart.
func TestYLAMoreRegistersMoreFiltering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	y1 := NewYLAFile(1, QuadWordShift)
	y8 := NewYLAFile(8, QuadWordShift)
	var f1, f8, stores int
	age := uint64(1)
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1<<14) &^ 7)
		if rng.Intn(3) == 0 {
			// A store with age slightly in the past.
			sAge := age - uint64(rng.Intn(16))
			stores++
			if y1.SafeStore(addr, sAge) {
				f1++
			}
			if y8.SafeStore(addr, sAge) {
				f8++
			}
		} else {
			y1.Update(addr, age)
			y8.Update(addr, age)
		}
		age++
	}
	if f8 < f1 {
		t.Errorf("8 banks filtered %d, 1 bank filtered %d — banking should not hurt", f8, f1)
	}
	if stores == 0 {
		t.Fatal("no stores exercised")
	}
}

func TestBloomFilterBasics(t *testing.T) {
	f := NewBloomFilter(64)
	addr := uint64(0x12340)
	if f.MayMatch(addr) {
		t.Error("empty filter matched")
	}
	f.Insert(addr)
	if !f.MayMatch(addr) {
		t.Error("inserted address not matched")
	}
	f.Remove(addr)
	if f.MayMatch(addr) {
		t.Error("removed address still matched")
	}
	// Removing when absent must not underflow.
	f.Remove(addr)
	f.Insert(addr)
	if !f.MayMatch(addr) {
		t.Error("insert after spurious remove failed")
	}
}

func TestBloomCounting(t *testing.T) {
	f := NewBloomFilter(64)
	a := uint64(0x1000)
	f.Insert(a)
	f.Insert(a)
	f.Remove(a)
	if !f.MayMatch(a) {
		t.Error("counting filter dropped address too early")
	}
	f.Remove(a)
	if f.MayMatch(a) {
		t.Error("counting filter retained address")
	}
}

func TestBloomNoFalseNegativesProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		bf := NewBloomFilter(32)
		for _, a := range addrs {
			bf.Insert(uint64(a))
		}
		// Every inserted address must match (no false negatives).
		for _, a := range addrs {
			if !bf.MayMatch(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Occupancy returns the number of nonzero buckets.
func (f *BloomFilter) Occupancy() int {
	var n int
	for _, b := range f.buckets {
		if b != 0 {
			n++
		}
	}
	return n
}

func TestBloomOccupancySaturates(t *testing.T) {
	small := NewBloomFilter(32)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		small.Insert(uint64(rng.Intn(1<<20)) &^ 7)
	}
	if small.Occupancy() < 28 {
		t.Errorf("small filter should saturate, occupancy=%d", small.Occupancy())
	}
}

func TestBloomInvalidSize(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d accepted", n)
				}
			}()
			NewBloomFilter(n)
		}()
	}
}

func TestBloomHashInRange(t *testing.T) {
	f := func(addr uint64) bool {
		bf := NewBloomFilter(256)
		return bf.Hash(addr) < 256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
