package lsq

import (
	"fmt"
	"sort"

	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/stats"
)

// FilterKind selects the optional search filter in front of the CAM LQ.
type FilterKind int

// Filter kinds for the conventional policy.
const (
	FilterNone FilterKind = iota
	FilterYLA
	FilterBloom
)

// CAMConfig parameterizes the conventional associative-LQ policy.
type CAMConfig struct {
	LQSize    int
	Filter    FilterKind
	YLARegs   int // used when Filter == FilterYLA
	BloomSize int // used when Filter == FilterBloom
}

// CAM is the conventional age-ordered, fully associative load queue: every
// resolving store searches it for younger issued loads to an overlapping
// address and triggers an immediate replay on a match. Optionally a YLA
// register file or a Bloom filter screens out provably unnecessary
// searches (the paper's Section 3 and its Figure 3 comparison point).
type CAM struct {
	cfg CAMConfig
	em  *energy.Model
	// In-flight loads in age order, consumed from index hd: commit drops
	// loads from the front, and popping via a head index replaces the
	// per-commit memmove of the whole queue. Compacted when hd grows past
	// a few LQ lengths so the backing array stays bounded.
	loads []*MemOp
	hd    int
	yla   *YLAFile
	bloom *BloomFilter // holds the queue's issued loads

	searches   uint64
	filtered   uint64
	replays    Replays
	searchCost float64
	writeCost  float64
	commitCost float64
}

// Validate reports the first configuration problem, or nil.
func (c CAMConfig) Validate() error {
	if c.LQSize < 1 {
		return fmt.Errorf("LQ size %d must be positive", c.LQSize)
	}
	switch c.Filter {
	case FilterNone:
	case FilterYLA:
		if !pow2(c.YLARegs, 1) {
			return fmt.Errorf("YLA register count %d must be a power of two ≥ 1", c.YLARegs)
		}
	case FilterBloom:
		if !pow2(c.BloomSize, 2) {
			return fmt.Errorf("bloom filter size %d must be a power of two ≥ 2", c.BloomSize)
		}
	default:
		return fmt.Errorf("unknown filter kind %d", c.Filter)
	}
	return nil
}

// NewCAM builds the policy. em may be a zero energy.Model, which accounts
// nothing. An invalid configuration yields a *ConfigError.
func NewCAM(cfg CAMConfig, em *energy.Model) (*CAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, &ConfigError{Policy: "cam", Err: err}
	}
	c := &CAM{
		cfg:        cfg,
		em:         em,
		searchCost: energy.CAMSearch(cfg.LQSize, energy.AddressBits),
		writeCost:  energy.CAMAccess(cfg.LQSize, energy.AddressBits+8),
		commitCost: energy.CAMAccess(cfg.LQSize, 16),
	}
	switch cfg.Filter {
	case FilterYLA:
		c.yla = NewYLAFile(cfg.YLARegs, QuadWordShift)
	case FilterBloom:
		c.bloom = NewBloomFilter(cfg.BloomSize)
	}
	return c, nil
}

// Name identifies the policy variant.
func (c *CAM) Name() string {
	switch c.cfg.Filter {
	case FilterYLA:
		return fmt.Sprintf("cam+yla%d", c.cfg.YLARegs)
	case FilterBloom:
		return fmt.Sprintf("cam+bf%d", c.cfg.BloomSize)
	default:
		return "cam"
	}
}

// LoadCapacity returns the LQ size.
func (c *CAM) LoadCapacity() int { return c.cfg.LQSize }

// LoadDispatch allocates the load's LQ entry.
func (c *CAM) LoadDispatch(op *MemOp) {
	c.loads = append(c.loads, op)
	c.em.Add(energy.CompLQ, c.writeCost)
}

// LoadIssue records the executed load's address in the LQ entry and
// updates the active filter.
func (c *CAM) LoadIssue(op *MemOp) {
	c.em.Add(energy.CompLQ, c.writeCost)
	if c.yla != nil {
		c.yla.Update(op.Addr, op.Age)
		c.em.Add(energy.CompYLA, energy.RegisterOp(20))
	}
	if c.bloom != nil {
		c.bloom.Insert(op.Addr)
		c.em.Add(energy.CompBloom, energy.RAMAccess(c.bloom.Size(), 4))
	}
}

// StoreResolve checks for younger issued loads that overlap the store.
// With a filter configured, a filter hit skips the associative search.
func (c *CAM) StoreResolve(op *MemOp) *Replay {
	if c.yla != nil {
		c.em.Add(energy.CompYLA, energy.RegisterOp(20))
		if c.yla.SafeStore(op.Addr, op.Age) {
			c.filtered++
			return nil
		}
	}
	if c.bloom != nil {
		c.em.Add(energy.CompBloom, energy.RAMAccess(c.bloom.Size(), 4))
		if !c.bloom.MayMatch(op.Addr) {
			c.filtered++
			return nil
		}
	}
	c.searches++
	c.em.Add(energy.CompLQ, c.searchCost)
	var victim *MemOp
	for _, l := range c.loads[c.hd:] {
		if l.Age <= op.Age || !l.Issued || l.WrongPath {
			// Wrong-path loads will be squashed by the imminent branch
			// recovery; replaying from them would model a redundant
			// recovery the real machine folds into that one.
			continue
		}
		if isa.Overlap(op.Addr, op.Size, l.Addr, l.Size) {
			if victim == nil || l.Age < victim.Age {
				victim = l
			}
		}
	}
	if victim == nil {
		return nil
	}
	c.replays[CauseTrue]++
	return &Replay{FromAge: victim.Age, Cause: CauseTrue}
}

// StoreCommit is a no-op for the conventional scheme.
func (c *CAM) StoreCommit(*MemOp) {}

// LoadCommit deallocates the load's LQ entry.
func (c *CAM) LoadCommit(op *MemOp) *Replay {
	c.em.Add(energy.CompLQ, c.commitCost)
	c.removeUpTo(op.Age)
	return nil
}

// removeUpTo drops loads with Age <= age from the front of the queue.
func (c *CAM) removeUpTo(age uint64) {
	for c.hd < len(c.loads) && c.loads[c.hd].Age <= age {
		if c.bloom != nil && c.loads[c.hd].Issued {
			c.bloom.Remove(c.loads[c.hd].Addr)
		}
		c.hd++
	}
	switch {
	case c.hd == len(c.loads):
		c.loads = c.loads[:0]
		c.hd = 0
	case c.hd > 4*c.cfg.LQSize:
		n := copy(c.loads, c.loads[c.hd:])
		c.loads = c.loads[:n]
		c.hd = 0
	}
}

// InstCommit is a no-op for the conventional scheme.
func (c *CAM) InstCommit(uint64) {}

// Squash removes loads with Age >= fromAge.
func (c *CAM) Squash(fromAge uint64) {
	// Loads are age-ordered; find the cut point in the live window.
	live := c.loads[c.hd:]
	cut := sort.Search(len(live), func(i int) bool { return live[i].Age >= fromAge })
	for _, l := range live[cut:] {
		if c.bloom != nil && l.Issued {
			c.bloom.Remove(l.Addr)
		}
	}
	c.loads = c.loads[:c.hd+cut]
	if c.hd == len(c.loads) {
		c.loads = c.loads[:0]
		c.hd = 0
	}
}

// Recover applies the YLA clamp remedy on branch/replay recovery.
func (c *CAM) Recover(age uint64) {
	if c.yla != nil {
		c.yla.Clamp(age)
	}
}

// Invalidate is a no-op: the evaluated baseline does not model coherence
// (paper Section 6.2.4: "The conventional baseline configuration also does
// not consider coherence").
func (c *CAM) Invalidate(uint64) {}

// Tick is a no-op.
func (c *CAM) Tick() {}

// Report writes the policy's counters into s.
func (c *CAM) Report(s *stats.Set) {
	s.Add("lq_searches", float64(c.searches))
	s.Add("lq_searches_filtered", float64(c.filtered))
	c.replays.Report(s, "replay_", "replays_total")
	s.Add("inflight_loads", float64(len(c.loads)-c.hd))
}
