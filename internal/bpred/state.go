package bpred

import "dmdc/internal/checkpoint"

// State visits the predictor's complete mutable state: the three counter
// tables, the speculative global history, the BTB, and the stats.
// Geometry (table sizes, BTB shape) is not written — it is derived from
// the configuration, which the caller binds in the checkpoint header.
func (p *Predictor) State(c *checkpoint.Codec) {
	c.Section("bpred")
	c.U32(&p.history)
	c.U64(&p.lruTick)
	c.U64(&p.Lookups)
	c.U64(&p.Mispredicts)
	c.U64(&p.BTBMisses)
	if p.history&^p.histMsk != 0 {
		c.Corrupt("history %#x has bits outside mask %#x", p.history, p.histMsk)
	}
	for _, tbl := range [][]uint8{p.bimodal, p.gshare, p.meta} {
		for i := range tbl {
			c.U8(&tbl[i])
			if tbl[i] > 3 {
				c.Corrupt("2-bit counter value %d", tbl[i])
			}
		}
	}
	for i := range p.btb {
		en := &p.btb[i]
		c.Bool(&en.valid)
		c.U64(&en.tag)
		c.U64(&en.target)
		c.U64(&en.lru)
	}
}
