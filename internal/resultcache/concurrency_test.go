package resultcache

import (
	"sync"
	"testing"
)

// TestConcurrentGetPutSameKey hammers one key with parallel writers and
// readers. The atomic temp-file+rename protocol must guarantee that every
// hit returns a complete, internally consistent entry — a torn write would
// surface here as a decode failure (counted as a miss and removed, which
// would then also starve the final verification) or as a result whose
// fields disagree. Run under -race this also checks the in-memory counter
// bookkeeping.
func TestConcurrentGetPutSameKey(t *testing.T) {
	c := openCache(t, t.TempDir())
	key := testKey()

	const (
		writers = 4
		readers = 4
		rounds  = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers*rounds)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Each writer stores a self-consistent variant: Cycles and
			// the "cycles" stat always agree, so a reader can detect a
			// half-applied entry.
			r := testResult()
			r.Cycles = uint64(10_000 + id)
			r.Stats.Put("cycles", float64(r.Cycles))
			for i := 0; i < rounds; i++ {
				if err := c.Put(key, r); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, ok := c.Get(key)
				if !ok {
					continue // miss before the first Put lands: fine
				}
				if res.Cycles < 10_000 || res.Cycles >= 10_000+writers {
					errs <- errInconsistent(res.Cycles)
					return
				}
				if got := res.Stats.Get("cycles"); got != float64(res.Cycles) {
					errs <- errInconsistent(res.Cycles)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the dust settles the entry must be a clean hit.
	res, ok := c.Get(key)
	if !ok {
		t.Fatal("no entry after concurrent writes")
	}
	if res.Cycles < 10_000 || res.Cycles >= 10_000+writers {
		t.Fatalf("final entry corrupt: cycles=%d", res.Cycles)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("want exactly 1 entry, got %d (err=%v)", n, err)
	}
}

type errInconsistent uint64

func (e errInconsistent) Error() string {
	return "torn or foreign cache entry observed: cycles out of range or stats disagree"
}

// TestSharedDirConcurrentWriters runs two Caches on one directory, each
// putting its own keys while readers on both look up either writer's.
// A reader may catch the other Cache's segment mid-write; every hit must
// still be a complete entry, and once the writers finish every key must
// be visible to both Caches and to a fresh Open.
func TestSharedDirConcurrentWriters(t *testing.T) {
	a := openCache(t, t.TempDir())
	b := reopen(t, a)
	const perWriter = 100
	var wg sync.WaitGroup
	for w, c := range []*Cache{a, b} {
		wg.Add(2)
		go func(w int, c *Cache) {
			defer wg.Done()
			r := testResult()
			for i := 0; i < perWriter; i++ {
				if err := c.Put(keyN(w*perWriter+i), r); err != nil {
					t.Error(err)
					return
				}
			}
		}(w, c)
		go func(c *Cache) {
			defer wg.Done()
			for i := 0; i < 2*perWriter; i++ {
				if r, ok := c.Get(keyN(i)); ok && r.Cycles != 1234 {
					t.Errorf("key %d served a foreign entry: cycles %d", i, r.Cycles)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, c := range []*Cache{a, b, reopen(t, a)} {
		for i := 0; i < 2*perWriter; i++ {
			if _, ok := c.Get(keyN(i)); !ok {
				t.Fatalf("key %d missing after both writers finished", i)
			}
		}
	}
}
