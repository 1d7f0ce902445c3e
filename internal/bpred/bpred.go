// Package bpred implements the paper's combined branch predictor: a
// bimodal table and a gshare table arbitrated by a meta chooser, plus a
// set-associative branch target buffer. Global history is updated
// speculatively at predict time and restored from a checkpoint on
// misprediction recovery, matching how the simulated core recovers.
package bpred

import "fmt"

// Config holds predictor geometry. The defaults mirror the paper's Table 1:
// gshare 8K entries with 13-bit history, bimodal 4K, meta 8K, BTB 4K 4-way.
type Config struct {
	BimodalEntries int
	GshareEntries  int
	HistoryBits    int
	MetaEntries    int
	BTBEntries     int
	BTBWays        int
}

// DefaultConfig returns the paper's predictor configuration.
func DefaultConfig() Config {
	return Config{
		BimodalEntries: 4096,
		GshareEntries:  8192,
		HistoryBits:    13,
		MetaEntries:    8192,
		BTBEntries:     4096,
		BTBWays:        4,
	}
}

// MaxEntries bounds each predictor table (bimodal, gshare, meta and BTB
// entries, and BTB ways), far above the paper's 8K-entry tables.
const MaxEntries = 1 << 20

// Validate reports the first configuration problem, or nil.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    int
	}{
		{"bimodal entries", c.BimodalEntries},
		{"gshare entries", c.GshareEntries},
		{"meta entries", c.MetaEntries},
		{"btb entries", c.BTBEntries},
		{"btb ways", c.BTBWays},
	} {
		if p.v <= 0 {
			return fmt.Errorf("bpred: %s must be positive, got %d", p.name, p.v)
		}
		if p.v > MaxEntries {
			return fmt.Errorf("bpred: %s %d exceeds the limit %d", p.name, p.v, MaxEntries)
		}
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"bimodal entries", c.BimodalEntries},
		{"gshare entries", c.GshareEntries},
		{"meta entries", c.MetaEntries},
	} {
		if p.v&(p.v-1) != 0 {
			return fmt.Errorf("bpred: %s must be a power of two, got %d", p.name, p.v)
		}
	}
	if c.HistoryBits <= 0 || c.HistoryBits > 30 {
		return fmt.Errorf("bpred: history bits must be in [1,30], got %d", c.HistoryBits)
	}
	if c.BTBEntries%c.BTBWays != 0 {
		return fmt.Errorf("bpred: BTB entries %d not divisible by ways %d", c.BTBEntries, c.BTBWays)
	}
	return nil
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// Predictor is a combined bimodal/gshare predictor with BTB. It is not
// safe for concurrent use; each simulated core owns one.
type Predictor struct {
	cfg     Config
	bimodal []uint8 // 2-bit saturating counters
	gshare  []uint8
	meta    []uint8 // 2-bit chooser: >=2 selects gshare
	history uint32  // speculative global history
	histMsk uint32
	// The BTB is one flat [sets*ways] slice — set s spans
	// btb[s*ways : (s+1)*ways] — so constructing a predictor costs one
	// allocation instead of one per set.
	btb     []btbEntry
	btbSets int
	lruTick uint64

	// Stats
	Lookups     uint64
	Mispredicts uint64
	BTBMisses   uint64
}

// New builds a predictor; it panics on an invalid configuration since that
// is a programming error in experiment setup, not a runtime condition.
func New(cfg Config) *Predictor {
	p := new(Predictor)
	p.Reset(cfg)
	return p
}

// Reset makes p exactly the predictor New(cfg) would build: weakly taken
// counters, an empty BTB, zero history and stats. Each table is reused
// whenever its capacity covers the new geometry, so a pooled predictor is
// rebuilt without allocating. Like New, it panics on an invalid
// configuration.
func (p *Predictor) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	bimodal, gshare, meta, btb := p.bimodal, p.gshare, p.meta, p.btb
	*p = Predictor{
		cfg:     cfg,
		bimodal: counters(bimodal, cfg.BimodalEntries),
		gshare:  counters(gshare, cfg.GshareEntries),
		meta:    counters(meta, cfg.MetaEntries),
		histMsk: (1 << cfg.HistoryBits) - 1,
		btbSets: cfg.BTBEntries / cfg.BTBWays,
	}
	if cap(btb) >= cfg.BTBEntries {
		p.btb = btb[:cfg.BTBEntries]
		clear(p.btb)
	} else {
		p.btb = make([]btbEntry, cfg.BTBEntries)
	}
}

// counters returns a table of n 2-bit counters in the weakly taken start
// state, which reduces cold-start noise, reusing buf when it is big enough.
// The table is filled by copying its filled prefix onto the rest, doubling
// it each time: log2(n) memmoves instead of a store per counter.
func counters(buf []uint8, n int) []uint8 {
	if cap(buf) < n {
		buf = make([]uint8, n)
	}
	buf = buf[:n]
	if n > 0 {
		buf[0] = 2
		for i := 1; i < n; i *= 2 {
			copy(buf[i:], buf[:i])
		}
	}
	return buf
}

func (p *Predictor) bimodalIdx(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.BimodalEntries-1))
}

func (p *Predictor) gshareIdx(pc uint64) int {
	return int(((pc >> 2) ^ uint64(p.history)) & uint64(p.cfg.GshareEntries-1))
}

func (p *Predictor) metaIdx(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.MetaEntries-1))
}

// Prediction is the outcome of a lookup. GshareIdx records the index used,
// so the update after resolution trains the same entry that predicted.
type Prediction struct {
	Taken     bool
	Target    uint64
	BTBHit    bool
	UsedGshr  bool
	GshareIdx int
}

// Predict looks up a direction and target for the branch at pc and
// speculatively updates the global history with the predicted direction.
func (p *Predictor) Predict(pc uint64) Prediction {
	p.Lookups++
	gIdx := p.gshareIdx(pc)
	bTaken := p.bimodal[p.bimodalIdx(pc)] >= 2
	gTaken := p.gshare[gIdx] >= 2
	useG := p.meta[p.metaIdx(pc)] >= 2
	taken := bTaken
	if useG {
		taken = gTaken
	}
	pred := Prediction{Taken: taken, UsedGshr: useG, GshareIdx: gIdx}
	if target, ok := p.btbLookup(pc); ok {
		pred.Target = target
		pred.BTBHit = true
	}
	// Speculative history update.
	p.history = ((p.history << 1) | boolBit(taken)) & p.histMsk
	return pred
}

// Update trains the tables with the resolved outcome. pred must be the
// Prediction returned for this branch so gshare trains the indexed entry.
func (p *Predictor) Update(pc uint64, pred Prediction, taken bool, target uint64) {
	bIdx := p.bimodalIdx(pc)
	bWasRight := (p.bimodal[bIdx] >= 2) == taken
	gWasRight := (p.gshare[pred.GshareIdx] >= 2) == taken
	saturate(&p.bimodal[bIdx], taken)
	saturate(&p.gshare[pred.GshareIdx], taken)
	// The meta table trains toward whichever component was right.
	if bWasRight != gWasRight {
		saturate(&p.meta[p.metaIdx(pc)], gWasRight)
	}
	if taken {
		p.btbInsert(pc, target)
	}
	if pred.Taken != taken || (taken && !pred.BTBHit) {
		p.Mispredicts++
	}
}

// HistoryCheckpoint captures the speculative history, taken at each branch
// so recovery can restore it.
func (p *Predictor) HistoryCheckpoint() uint32 { return p.history }

// RestoreHistory rewinds the speculative history to a checkpoint and
// appends the now-known outcome of the mispredicted branch.
func (p *Predictor) RestoreHistory(checkpoint uint32, taken bool) {
	p.history = ((checkpoint << 1) | boolBit(taken)) & p.histMsk
}

func (p *Predictor) btbLookup(pc uint64) (uint64, bool) {
	set := (pc >> 2) % uint64(p.btbSets)
	tag := pc >> 2 / uint64(p.btbSets)
	ways := p.btb[int(set)*p.cfg.BTBWays : (int(set)+1)*p.cfg.BTBWays]
	for i := range ways {
		e := &ways[i]
		if e.valid && e.tag == tag {
			p.lruTick++
			e.lru = p.lruTick
			return e.target, true
		}
	}
	p.BTBMisses++
	return 0, false
}

func (p *Predictor) btbInsert(pc, target uint64) {
	set := (pc >> 2) % uint64(p.btbSets)
	tag := pc >> 2 / uint64(p.btbSets)
	ways := p.btb[int(set)*p.cfg.BTBWays : (int(set)+1)*p.cfg.BTBWays]
	victim := 0
	for i := range ways {
		e := &ways[i]
		if e.valid && e.tag == tag {
			e.target = target
			p.lruTick++
			e.lru = p.lruTick
			return
		}
		if !e.valid {
			victim = i
			break
		}
		if e.lru < ways[victim].lru {
			victim = i
		}
	}
	p.lruTick++
	ways[victim] = btbEntry{valid: true, tag: tag, target: target, lru: p.lruTick}
}

func saturate(ctr *uint8, up bool) {
	if up {
		if *ctr < 3 {
			*ctr++
		}
	} else if *ctr > 0 {
		*ctr--
	}
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
