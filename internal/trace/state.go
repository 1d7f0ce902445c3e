package trace

import (
	"dmdc/internal/checkpoint"
	"dmdc/internal/isa"
)

// State visits the generator's complete dynamic state: the RNGs, the CFG
// position, every branch site's pattern machine, the register dataflow
// rings, and the address-generation state. The static CFG itself is
// rebuilt from the Profile (bound in the checkpoint header), not written,
// so decoding needs a generator built from the same profile.
func (g *Generator) State(c *checkpoint.Codec) {
	c.Section("trace")
	c.Rand(g.rng)
	c.U64(&g.seq)
	c.Int(&g.cur)
	c.Int(&g.slot)
	g.blockPos(c, g.cur, g.slot)
	hasWP := g.wpRng != nil
	c.Bool(&hasWP)
	switch {
	case hasWP:
		if g.wpRng == nil {
			g.wpScratch = WrongStream{g: g, rng: g.attachWP()}
		}
		c.Rand(g.wpRng)
		c.Int(&g.wpScratch.cur)
		c.Int(&g.wpScratch.slot)
		g.blockPos(c, g.wpScratch.cur, g.wpScratch.slot)
	case c.Decoding() && g.wpRng != nil:
		g.wpSpare, g.wpRng, g.wpScratch = g.wpRng, nil, WrongStream{}
	}
	for i := range g.blocks {
		site := &g.blocks[i].site
		c.Int(&g.counters[i])
		switch n := g.counters[i]; {
		case site.kind == brLoop && (n < 0 || n >= site.loopLen):
			c.Corrupt("loop counter %d outside trip count %d", n, site.loopLen)
		case site.kind == brPattern && (n < 0 || n >= len(site.pattern)):
			c.Corrupt("pattern counter %d outside pattern of %d", n, len(site.pattern))
		}
	}
	regOK := func(r int16) bool { return r >= 0 && r < int16(isa.NumRegs) }
	ring := func(r []int16, n *int) {
		for i := range r {
			c.I16(&r[i])
			if r[i] != isa.RegNone && !regOK(r[i]) {
				c.Corrupt("ring register %d out of range", r[i])
			}
		}
		// Ring cursors count total insertions (indexed modulo the ring
		// size), so any non-negative value is legal.
		c.Int(n)
		if *n < 0 {
			c.Corrupt("negative ring cursor %d", *n)
		}
	}
	ring(g.destRing[:], &g.destRingLen)
	ring(g.aluRing[:], &g.aluRingLen)
	ring(g.loadRing[:], &g.loadRingLen)
	ring(g.fpRing[:], &g.fpRingLen)
	c.I16(&g.nextIntDest)
	c.I16(&g.nextFPDest)
	c.I16(&g.lastLoadDest)
	if !regOK(g.nextIntDest) || !regOK(g.nextFPDest) || !regOK(g.lastLoadDest) {
		c.Corrupt("destination cursor register out of range")
	}
	c.Int(&g.baseRegTimer)
	for i := range g.seqPtrs {
		c.U64(&g.seqPtrs[i])
	}
	c.Int(&g.lastStream)
	if g.lastStream < 0 || g.lastStream >= len(g.seqPtrs) {
		c.Corrupt("stream index %d outside [0,%d)", g.lastStream, len(g.seqPtrs))
	}
	for i := range g.storeRing {
		st := &g.storeRing[i]
		c.U64(&st.addr)
		c.U8(&st.size)
		switch st.size {
		case 1, 2, 4, 8:
		default:
			c.Corrupt("store ring size %d", st.size)
		}
		c.I16(&st.src1)
		if st.src1 != isa.RegNone && !regOK(st.src1) {
			c.Corrupt("store ring register %d out of range", st.src1)
		}
	}
	c.Int(&g.storeHead)
	if g.storeHead < 0 || g.storeHead >= len(g.storeRing) {
		c.Corrupt("store ring head %d outside [0,%d)", g.storeHead, len(g.storeRing))
	}
	c.U64(&g.lastLoadAddr)
}

// blockPos checks a decoded (block, slot) CFG position.
func (g *Generator) blockPos(c *checkpoint.Codec, cur, slot int) {
	switch {
	case cur < 0 || cur >= len(g.blocks):
		c.Corrupt("block index %d outside CFG of %d blocks", cur, len(g.blocks))
	case slot < 0 || slot > len(g.blocks[cur].ops):
		c.Corrupt("slot %d outside block of %d ops", slot, len(g.blocks[cur].ops))
	}
}

// SaveState writes the generator's state (see State) to e.
func (g *Generator) SaveState(e *checkpoint.Encoder) { g.State(&e.Codec) }

// LoadState restores state written by SaveState into a generator built
// from the same profile.
func (g *Generator) LoadState(d *checkpoint.Decoder) error { g.State(&d.Codec); return d.Err() }

// WrongPathScratch returns the generator's reused wrong-path stream, or
// nil if none is live. The core uses it to rewire its wrong-path fetch
// source after a restore.
func (g *Generator) WrongPathScratch() *WrongStream {
	if g.wpRng == nil {
		return nil
	}
	return &g.wpScratch
}
