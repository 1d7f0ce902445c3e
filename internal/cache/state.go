package cache

import "dmdc/internal/checkpoint"

// State visits one cache level's mutable state: every line's
// tag/valid/dirty/LRU, the LRU clock, and the stats counters. Geometry is
// derived from configuration and not written.
func (c *Cache) State(k *checkpoint.Codec) {
	k.Section("cache:" + c.cfg.Name)
	k.U64(&c.lruTick)
	k.U64(&c.Accesses)
	k.U64(&c.Misses)
	k.U64(&c.Writebacks)
	k.U64(&c.Invals)
	for i := range c.sets {
		ln := &c.sets[i]
		k.Bool(&ln.valid)
		k.Bool(&ln.dirty)
		k.U64(&ln.tag)
		k.U64(&ln.lru)
	}
}

// State visits all three levels of the hierarchy.
func (h *Hierarchy) State(c *checkpoint.Codec) {
	h.L1I.State(c)
	h.L1D.State(c)
	h.L2.State(c)
}
