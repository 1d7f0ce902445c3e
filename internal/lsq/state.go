package lsq

import (
	"slices"

	"dmdc/internal/checkpoint"
	"dmdc/internal/stats"
)

// Checkpointable is implemented by policies whose complete state can be
// captured into a checkpoint and restored into a freshly constructed
// policy of the same configuration. State visits that state in format
// order (see checkpoint.Codec). When decoding, resolve maps a live
// instruction age back to its MemOp slot in the restored core's ROB
// arena; it returns nil for ages that are not live memory operations,
// which the visitor treats as corruption.
type Checkpointable interface {
	State(c *checkpoint.Codec, resolve func(age uint64) *MemOp)
}

// Warmer is implemented by policies that can absorb a committed load
// during functional fast-forward, keeping their age filters (YLA
// registers) warm without detailed timing.
type Warmer interface {
	WarmLoad(addr, age uint64)
}

// State visits the tally in cause order.
func (r *Replays) State(c *checkpoint.Codec) {
	for i := range r {
		c.U64(&r[i])
	}
}

// state visits a YLA register file's contents.
func (y *YLAFile) state(c *checkpoint.Codec) {
	for i := range y.regs {
		c.U64(&y.regs[i])
	}
}

// winStores visits a list of window stores.
func winStores(c *checkpoint.Codec, ws *[]winStore) {
	checkpoint.List(c, ws, maxList)
	for i := range *ws {
		(*ws)[i].state(c)
	}
}

// state visits one window store.
func (w *winStore) state(c *checkpoint.Codec) {
	c.U64(&w.age)
	c.U64(&w.addr)
	c.U8(&w.size)
	c.U64(&w.resolveCycle)
	c.U64(&w.endAge)
	switch w.size {
	case 1, 2, 4, 8:
	default:
		c.Corrupt("store size %d", w.size)
	}
}

// summary visits a running summary statistic.
func summary(c *checkpoint.Codec, s *stats.Summary) {
	c.Int(&s.N)
	c.F64(&s.Sum)
	c.F64(&s.Min)
	c.F64(&s.Max)
}

// maxList bounds variable-length lists whose size has no tight
// configuration-derived cap; Len additionally bounds every list by the
// remaining payload bytes.
const maxList = 1 << 20

// State visits the CAM policy: the in-flight load queue (as ages; the
// MemOps themselves live in the core's ROB arena), the optional YLA or
// Bloom filter, and the stats. The Bloom filter holds the queue's issued
// loads, and the format lists them after its buckets, so decoding checks
// both against the restored queue.
func (c *CAM) State(k *checkpoint.Codec, resolve func(age uint64) *MemOp) {
	k.Section("pol:cam")
	live := c.loads[c.hd:]
	n := k.Len(len(live), maxList)
	if k.Decoding() {
		c.loads, c.hd = c.loads[:0], 0
	}
	var prev uint64
	for i := 0; i < n; i++ {
		var age uint64
		if !k.Decoding() {
			age = live[i].Age
		}
		k.U64(&age)
		if i > 0 && age <= prev {
			k.Corrupt("load ages not strictly ascending (%d after %d)", age, prev)
		}
		prev = age
		if k.Decoding() && k.Err() == nil {
			switch op := resolve(age); {
			case op == nil:
				k.Corrupt("load age %d is not a live memory op", age)
			case !op.IsLoad:
				k.Corrupt("age %d is not a load", age)
			default:
				c.loads = append(c.loads, op)
			}
		}
	}
	checkpoint.Same(k, c.yla != nil, "YLA presence")
	if c.yla != nil {
		c.yla.state(k)
	}
	checkpoint.Same(k, c.bloom != nil, "bloom presence")
	if c.bloom != nil {
		c.bloomState(k)
	}
	k.U64(&c.searches)
	k.U64(&c.filtered)
	c.replays.State(k)
}

// bloomState visits the Bloom filter's buckets and then the loads it
// holds, (age, address) in age order: the queue's issued loads.
func (c *CAM) bloomState(k *checkpoint.Codec) {
	f := c.bloom
	for i := range f.buckets {
		k.U16(&f.buckets[i])
	}
	live := c.loads[c.hd:]
	issued := 0
	for _, l := range live {
		if l.Issued {
			issued++
		}
	}
	if n := k.Len(issued, maxList); n != issued {
		k.Corrupt("%d tracked loads for %d issued loads in the queue", n, issued)
		return
	}
	for _, l := range live {
		if !l.Issued {
			continue
		}
		age, addr := l.Age, l.Addr
		k.U64(&age)
		k.U64(&addr)
		if age != l.Age || addr != l.Addr {
			k.Corrupt("tracked load (%d, %#x) is not the queue's issued load (%d, %#x)", age, addr, l.Age, l.Addr)
		}
	}
	if k.Decoding() {
		for b := range f.buckets {
			n := 0
			for _, l := range live {
				if l.Issued && f.Hash(l.Addr) == uint32(b) {
					n++
				}
			}
			if int(f.buckets[b]) != n {
				k.Corrupt("bucket %d counts %d loads, the queue holds %d", b, f.buckets[b], n)
			}
		}
	}
}

// WarmLoad absorbs a committed load during functional fast-forward: only
// the YLA filter observes it (the load queue and Bloom filter track
// in-flight loads, and fast-forwarded loads are never in flight).
func (c *CAM) WarmLoad(addr, age uint64) {
	if c.yla != nil {
		c.yla.Update(addr, age)
	}
}

// State visits the DMDC policy: checking table and dirty list,
// pending-store queue (queue variant), open checking-window state, YLA
// register files, and all statistics. The queue and its overflow flag
// are derived from the window's stores, and the format lists them before
// the window, so decoding reads them aside and checks them once the
// window is in. Decoding also checks that the dirty list names exactly
// the table entries that are not clear, each once: an entry it missed
// would outlive its window.
func (d *DMDC) State(c *checkpoint.Codec, _ func(age uint64) *MemOp) {
	c.Section("pol:dmdc")
	for i := range d.table {
		en := &d.table[i]
		c.U8(&en.wrt)
		c.Bool(&en.inv)
		c.Bool(&en.invPromoted)
	}
	checkpoint.List(c, &d.dirty, maxList)
	for i := range d.dirty {
		c.U32(&d.dirty[i])
	}
	if c.Decoding() {
		d.checkDirty(c)
	}
	var queue []winStore
	overflowed := d.overflowed()
	if !c.Decoding() {
		queue = d.queue()
	}
	winStores(c, &queue)
	c.Bool(&overflowed)
	c.U64(&d.endCheck)
	c.Bool(&d.checking)
	winStores(c, &d.windowStores)
	if !slices.Equal(queue, d.queue()) || overflowed != d.overflowed() {
		c.Corrupt("checking queue of %d stores (overflowed %t) is not the window's first %d of %d",
			len(queue), overflowed, d.cfg.QueueSize, len(d.windowStores))
	}
	c.U64(&d.winInsts)
	c.U64(&d.winLoads)
	c.U64(&d.winSafeLoads)
	c.U64(&d.winStoresN)
	d.ylaQW.state(c)
	checkpoint.Same(c, d.ylaLine != nil, "line-YLA presence")
	if d.ylaLine != nil {
		d.ylaLine.state(c)
	}
	c.U64(&d.safeStores)
	c.U64(&d.unsafeStores)
	c.U64(&d.safeLoadBypass)
	c.U64(&d.loadsChecked)
	c.U64(&d.checkingCycles)
	c.U64(&d.totalCycles)
	d.replays.State(c)
	c.U64(&d.invActivations)
	c.U64(&d.invalidations)
	c.U64(&d.invPromotions)
	summary(c, &d.windowInsts)
	summary(c, &d.windowLoads)
	summary(c, &d.windowSafeLoads)
	c.U64(&d.windows)
	c.U64(&d.singleStoreWindows)
}

// checkDirty fails decoding unless the dirty list names exactly the table
// entries that are not clear, each once.
func (d *DMDC) checkDirty(c *checkpoint.Codec) {
	for i, idx := range d.dirty {
		switch {
		case idx >= uint32(len(d.table)):
			c.Corrupt("dirty index %d outside table of %d", idx, len(d.table))
		case d.table[idx] == tableEntry{}:
			c.Corrupt("dirty index %d names a clear entry", idx)
		case slices.Contains(d.dirty[:i], idx):
			c.Corrupt("dirty index %d listed twice", idx)
		}
	}
	n := 0
	for _, en := range d.table {
		if en != (tableEntry{}) {
			n++
		}
	}
	if n != len(d.dirty) {
		c.Corrupt("%d dirty indices for %d entries that are not clear", len(d.dirty), n)
	}
}

// WarmLoad absorbs a committed load during functional fast-forward: both
// YLA register files track the youngest load age per address bank.
func (d *DMDC) WarmLoad(addr, age uint64) {
	d.ylaQW.Update(addr, age)
	if d.ylaLine != nil {
		d.ylaLine.Update(addr, age)
	}
}

// State visits the age-table policy: every table entry plus stats.
func (a *AgeTable) State(c *checkpoint.Codec, _ func(age uint64) *MemOp) {
	c.Section("pol:agetable")
	for i := range a.table {
		c.U64(&a.table[i].age)
		c.U8(&a.table[i].bitmap)
	}
	c.U64(&a.searches)
	a.replays.State(c)
}

// State visits the value-based policy: the optional SVW filter table,
// the recent-store ring, and stats. The ring holds the newest committed
// stores, all of them until it fills, and the commit check relies on
// that, so decoding requires its length to be the store count capped at
// its size.
func (v *ValueBased) State(c *checkpoint.Codec, _ func(age uint64) *MemOp) {
	c.Section("pol:valuebased")
	checkpoint.Same(c, v.svw != nil, "SVW presence")
	for i := range v.svw {
		c.U64(&v.svw[i])
	}
	// The ring is visited oldest first, a list in commit order, and
	// restored with its oldest entry first.
	n := c.Len(len(v.recentStores), recentWindow)
	if c.Decoding() {
		v.recentStores = v.ring()[:n]
		v.recentHead = 0
	}
	for i := 0; i < n; i++ {
		v.recentStores[(v.recentHead+i)%n].state(c)
	}
	c.U64(&v.storeSeq)
	if uint64(n) != min(v.storeSeq, recentWindow) {
		c.Corrupt("recent-store ring of %d for %d committed stores", n, v.storeSeq)
	}
	c.U64(&v.reexecutions)
	c.U64(&v.svwFiltered)
	v.replays.State(c)
}
