// Package cache models a set-associative, write-back, write-allocate cache
// hierarchy with LRU replacement. The model is timing-oriented: an access
// returns the total latency to satisfy it, recursing into lower levels on a
// miss. Contents are tags only — the simulator is trace-driven and never
// needs data values.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name    string
	SizeB   int // total capacity in bytes
	Ways    int
	LineB   int // line size in bytes
	Latency int // hit latency in cycles
}

// Geometry limits for one cache level, each far above the paper's
// caches. Validate checks them before it forms any product of the
// fields, so no configuration can overflow one.
const (
	MaxLines = 1 << 20 // SizeB / LineB
	MaxLineB = 4096
	MaxWays  = 1024
)

// Validate reports the first configuration problem, or nil.
func (c Config) Validate() error {
	if c.SizeB <= 0 || c.Ways <= 0 || c.LineB <= 0 || c.Latency <= 0 {
		return fmt.Errorf("cache %q: all parameters must be positive: %+v", c.Name, c)
	}
	switch {
	case c.LineB > MaxLineB:
		return fmt.Errorf("cache %q: line size %d exceeds the limit %d", c.Name, c.LineB, MaxLineB)
	case c.Ways > MaxWays:
		return fmt.Errorf("cache %q: %d ways exceed the limit %d", c.Name, c.Ways, MaxWays)
	case c.SizeB/c.LineB > MaxLines:
		return fmt.Errorf("cache %q: %d lines exceed the limit %d", c.Name, c.SizeB/c.LineB, MaxLines)
	}
	if c.LineB&(c.LineB-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineB)
	}
	if c.SizeB%(c.Ways*c.LineB) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*line (%d*%d)",
			c.Name, c.SizeB, c.Ways, c.LineB)
	}
	sets := c.SizeB / (c.Ways * c.LineB)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeB / (c.Ways * c.LineB) }

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

// Cache is one level of the hierarchy. If next is nil, misses cost
// memLatency (the DRAM access time). Not safe for concurrent use.
type Cache struct {
	cfg        Config
	sets       []line // flat set-major storage; set i spans [i*Ways, (i+1)*Ways)
	nSets      uint64
	setMask    uint64 // nSets-1; set counts are validated powers of two
	setShift   uint   // log2(nSets)
	lineShift  uint
	next       *Cache
	memLatency int
	lruTick    uint64

	// Stats
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
	Invals     uint64
}

// Reset makes c an empty level for cfg over next, the lower level (nil
// for the last level before memory); memLatency is the cost of going to
// memory from this level when next is nil. Every line is invalid, the LRU
// clock and the counters zero. The line array is reused whenever its
// capacity covers the new geometry, so a pooled level is rebuilt without
// allocating. An invalid cfg is reported and leaves c unchanged.
func (c *Cache) Reset(cfg Config, next *Cache, memLatency int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	sets := c.sets
	*c = Cache{
		cfg:        cfg,
		nSets:      uint64(cfg.Sets()),
		next:       next,
		memLatency: memLatency,
	}
	for s := cfg.LineB; s > 1; s >>= 1 {
		c.lineShift++
	}
	c.setMask = c.nSets - 1
	for s := c.nSets; s > 1; s >>= 1 {
		c.setShift++
	}
	if n := int(c.nSets) * cfg.Ways; cap(sets) >= n {
		c.sets = sets[:n]
		clear(c.sets)
	} else {
		c.sets = make([]line, n)
	}
	return nil
}

// indexTag splits an address into set index and tag. Set counts are
// powers of two, so the div/mod pair reduces to mask and shift — this is
// on the path of every cache access the simulator models.
func (c *Cache) indexTag(addr uint64) (uint64, uint64) {
	lineAddr := addr >> c.lineShift
	return lineAddr & c.setMask, lineAddr >> c.setShift
}

// Access performs a read (write=false) or write (write=true) and returns
// the total latency in cycles to obtain the line at this level.
func (c *Cache) Access(addr uint64, write bool) int {
	c.Accesses++
	set, tag := c.indexTag(addr)
	ways := c.sets[int(set)*c.cfg.Ways : (int(set)+1)*c.cfg.Ways]
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			c.lruTick++
			l.lru = c.lruTick
			if write {
				l.dirty = true
			}
			return c.cfg.Latency
		}
	}
	// Miss: fetch from below (write-allocate).
	c.Misses++
	lower := c.memLatency
	if c.next != nil {
		lower = c.next.Access(addr, false)
	}
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	if ways[victim].valid && ways[victim].dirty {
		c.Writebacks++
		// Write-back cost is overlapped with the fill in modern designs;
		// we account it in stats but not in the critical-path latency.
	}
	c.lruTick++
	ways[victim] = line{valid: true, dirty: write, tag: tag, lru: c.lruTick}
	return c.cfg.Latency + lower
}

// Invalidate removes the line containing addr from this level and all
// levels above... this model invalidates downward: call on the top level
// and it propagates to lower levels too, modeling an external coherence
// invalidation that must purge the whole hierarchy.
func (c *Cache) Invalidate(addr uint64) {
	c.Invals++
	set, tag := c.indexTag(addr)
	ways := c.sets[int(set)*c.cfg.Ways : (int(set)+1)*c.cfg.Ways]
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.valid = false
			l.dirty = false
		}
	}
	if c.next != nil {
		c.next.Invalidate(addr)
	}
}

// Hierarchy bundles the paper's memory system: split L1I/L1D over a
// unified L2 over memory.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
}

// HierarchyConfig holds the full memory-system configuration. Defaults
// follow the paper's Table 1.
type HierarchyConfig struct {
	L1I        Config
	L1D        Config
	L2         Config
	MemLatency int
}

// DefaultHierarchyConfig returns the paper's memory parameters: 64KB
// direct-mapped L1I (2 cycles), 32KB 2-way L1D (2 cycles, 2 ports), 1MB
// 8-way L2 with 128B lines (15 cycles), 120-cycle memory.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:        Config{Name: "l1i", SizeB: 64 << 10, Ways: 1, LineB: 64, Latency: 2},
		L1D:        Config{Name: "l1d", SizeB: 32 << 10, Ways: 2, LineB: 64, Latency: 2},
		L2:         Config{Name: "l2", SizeB: 1 << 20, Ways: 8, LineB: 128, Latency: 15},
		MemLatency: 120,
	}
}

// NewHierarchy builds the three-level hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	h := new(Hierarchy)
	if err := h.Reset(cfg); err != nil {
		return nil, err
	}
	return h, nil
}

// Reset makes h exactly the hierarchy NewHierarchy(cfg) would build,
// resetting each existing level in place (see Cache.Reset). After an
// error h may be partly reset and must not be used until a Reset
// succeeds.
func (h *Hierarchy) Reset(cfg HierarchyConfig) error {
	if h.L2 == nil {
		h.L1I, h.L1D, h.L2 = new(Cache), new(Cache), new(Cache)
	}
	if err := h.L2.Reset(cfg.L2, nil, cfg.MemLatency); err != nil {
		return err
	}
	if err := h.L1I.Reset(cfg.L1I, h.L2, cfg.MemLatency); err != nil {
		return err
	}
	return h.L1D.Reset(cfg.L1D, h.L2, cfg.MemLatency)
}

// Invalidate purges a line from the data path (L1D and L2), modeling an
// external coherence invalidation.
func (h *Hierarchy) Invalidate(addr uint64) { h.L1D.Invalidate(addr) }
