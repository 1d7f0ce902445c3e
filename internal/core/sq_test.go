package core

import (
	"testing"

	"dmdc/internal/isa"
)

// linearSQSearch is the reference for Sim.sqSearch: a walk over every
// store older than the load. It returns the position of the youngest
// older resolved store overlapping the access, or -1, and whether any
// older store's address is unresolved.
func linearSQSearch(sq []sqEntry, age, addr uint64, size uint8) (match int, unresolved bool) {
	match = -1
	for i := range sq {
		st := &sq[i]
		if st.age >= age {
			break
		}
		if !st.addrResolved {
			unresolved = true
			continue
		}
		if isa.Overlap(addr, size, st.addr, st.size) {
			match = i
		}
	}
	return match, unresolved
}

// sqFuzzGranules are granules whose SQ filter buckets collide: each pair
// shares a bucket, so accesses to them exercise the walk a collision
// forces as well as the walk a true overlap needs.
func sqFuzzGranules() []uint64 {
	const base = 0x1000_0000 >> 3
	gs := []uint64{base, base + 1, base + 2}
	for _, g := range []uint64{base, base + 2} {
		for h := g + 3; ; h++ {
			if sqBucket(h) == sqBucket(g) {
				gs = append(gs, h, h+1)
				break
			}
		}
	}
	return gs
}

// FuzzSQSearch drives the store queue through random dispatch, resolve,
// commit, squash and rebuild sequences, the SQ index maintained the way
// the pipeline maintains it, and requires every load search to return
// what the linear walk returns, and the index to match its recount after
// every step. Accesses are 1–8 bytes at any alignment, so they cross
// granules, over a few granules whose buckets collide.
func FuzzSQSearch(f *testing.F) {
	f.Add([]byte{0, 5, 3, 0, 9, 7, 2, 0, 0, 5, 1, 4, 5, 9, 2, 3, 0, 0, 4, 1, 0, 5, 6, 6})
	f.Add([]byte{0, 0, 7, 0, 1, 7, 0, 2, 7, 2, 1, 0, 2, 0, 0, 5, 30, 7, 3, 0, 0, 5, 40, 3})
	f.Add([]byte{1, 16, 0, 1, 17, 1, 2, 0, 0, 2, 0, 0, 6, 0, 0, 5, 16, 7, 4, 1, 0, 5, 8, 8})
	f.Add([]byte{0, 3, 2, 2, 0, 0, 0, 4, 5, 2, 0, 0, 3, 0, 0, 5, 3, 4, 6, 0, 0, 5, 35, 1})
	granules := sqFuzzGranules()
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Sim{sqIdx: &sqIndex{}}
		nextAge := uint64(1)
		access := func(a, b byte) (uint64, uint8) {
			g := granules[int(a)%len(granules)]
			return g<<3 + uint64(b%8), 1 + (a/8)%8
		}
		search := func(a, b, c byte) {
			t.Helper()
			lo := nextAge - min(nextAge-1, 40)
			age := lo + uint64(c)%(nextAge-lo+1)
			addr, size := access(a, b)
			match, unresolved := s.sqSearch(age, addr, size)
			want, wantUnresolved := linearSQSearch(s.sq, age, addr, size)
			got := -1
			if match != nil {
				got = s.sqPos(match.age)
			}
			if got != want || unresolved != wantUnresolved {
				t.Fatalf("load age %d [%#x,+%d) over %+v: search gave (%d, %v), the walk (%d, %v)",
					age, addr, size, s.sq, got, unresolved, want, wantUnresolved)
			}
		}
		for len(data) >= 3 {
			op, a, b := data[0], data[1], data[2]
			data = data[3:]
			switch op % 7 {
			case 0, 1: // dispatch a store, skipping the ages of other instructions
				if len(s.sq) < 48 {
					addr, size := access(a, b)
					s.sq = append(s.sq, sqEntry{age: nextAge, addr: addr, size: size})
				}
				nextAge += 1 + uint64(b)%3
			case 2: // resolve the a-th store, if it is unresolved
				if len(s.sq) > 0 {
					if st := &s.sq[int(a)%len(s.sq)]; !st.addrResolved {
						s.sqResolve(st.age)
					}
				}
			case 3: // commit the oldest store, resolved or not
				if len(s.sq) > 0 {
					s.removeSQ(s.sq[0].age)
				}
			case 4: // squash from the a-th store's age; ages are recycled
				if len(s.sq) > 0 {
					from := s.sq[int(a)%len(s.sq)].age + uint64(b)%2
					s.truncateSQ(from)
					nextAge = from
				}
			case 5: // a load searches
				search(a, b, op/7)
			case 6: // a restore rebuilds the index from the SQ
				*s.sqIdx = sqIndexOf(s.sq)
			}
			if err := s.checkStoreSide(); err != nil {
				t.Fatal(err)
			}
			search(b, a, a^b)
		}
	})
}
