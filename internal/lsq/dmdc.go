package lsq

import (
	"fmt"

	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/stats"
)

// DMDCConfig parameterizes Delayed Memory Dependence Checking.
type DMDCConfig struct {
	// TableSize is the number of checking-table entries (power of two).
	// Ignored when QueueSize > 0.
	TableSize int
	// QueueSize, when positive, replaces the hash table with an
	// associative checking queue of that many entries (Section 4.4),
	// fewer than maxWindowStores.
	QueueSize int
	// Local selects local end-check management: each unsafe store records
	// its own window boundary at resolve and publishes it only at commit,
	// so overlapping windows merge less (Section 4.4 "Local DMDC").
	Local bool
	// SafeLoads enables the safe-load bypass optimization (Section 4.2).
	SafeLoads bool
	// YLARegs is the number of quad-word-interleaved YLA registers.
	YLARegs int
	// Coherence enables write-serialization support: INV bits in the
	// checking table and a second, cache-line-interleaved YLA set
	// (Section 4.3).
	Coherence bool
	// LineYLARegs is the size of the line-interleaved set (Coherence only).
	LineYLARegs int
	// LoadCap bounds in-flight loads; DMDC needs only a FIFO of hash keys,
	// so this is typically the ROB size.
	LoadCap int
}

// DefaultDMDCConfig returns the paper's evaluated configuration for a
// given checking-table size and load capacity: 8+8 YLA registers, global
// windows, safe loads enabled, coherence support on.
func DefaultDMDCConfig(tableSize, loadCap int) DMDCConfig {
	return DMDCConfig{
		TableSize:   tableSize,
		SafeLoads:   true,
		YLARegs:     8,
		Coherence:   true,
		LineYLARegs: 8,
		LoadCap:     loadCap,
	}
}

// Validate reports the first configuration problem, or nil.
func (c DMDCConfig) Validate() error {
	if c.QueueSize < 0 {
		return fmt.Errorf("negative queue size")
	}
	if c.QueueSize >= maxWindowStores {
		return fmt.Errorf("queue size %d must be below the %d-store window record", c.QueueSize, maxWindowStores)
	}
	if c.QueueSize == 0 && !pow2(c.TableSize, 2) {
		return fmt.Errorf("checking table size %d must be a power of two ≥ 2", c.TableSize)
	}
	if !pow2(c.YLARegs, 1) {
		return fmt.Errorf("YLA register count %d must be a power of two ≥ 1", c.YLARegs)
	}
	if c.Coherence && !pow2(c.LineYLARegs, 1) {
		return fmt.Errorf("line YLA register count %d must be a power of two ≥ 1", c.LineYLARegs)
	}
	if c.LoadCap < 1 {
		return fmt.Errorf("load capacity %d must be positive", c.LoadCap)
	}
	return nil
}

// tableEntry is one checking-table entry: a 4-bit WRT bitmap (one bit per
// 2-byte granule of the quad word), an INV bit, and a flag recording
// whether WRT bits were promoted from INV. The flag changes no replay's
// cause (classify attributes a replay without it); it stays only because
// every DMDC checkpoint records it, one byte per entry.
type tableEntry struct {
	wrt         uint8
	inv         bool
	invPromoted bool
}

// maxWindowStores bounds the stores an open window records, which bounds
// memory in pathological merges. The checking queue holds the window's
// first QueueSize stores, so it is a prefix of the record, and it has
// overflowed once the record holds more.
const maxWindowStores = 8192

// winStore records a committed unsafe store whose checking window is
// currently open; used for exact-address checking (queue variant) and for
// oracle classification of replays.
type winStore struct {
	age          uint64
	addr         uint64
	size         uint8
	resolveCycle uint64
	endAge       uint64
}

// DMDC implements delayed memory dependence checking. The associative LQ
// is gone: loads record a hash key in a FIFO at issue, unsafe stores mark
// the checking table at commit, and loads index the table when they commit
// during a checking window.
type DMDC struct {
	cfg     DMDCConfig
	em      *energy.Model
	ylaQW   *YLAFile
	ylaLine *YLAFile

	table []tableEntry
	hash  h0
	dirty []uint32 // the table entries that are not clear, each once

	endCheck uint64
	checking bool

	windowStores []winStore

	// Current-window accumulators.
	winInsts, winLoads, winSafeLoads, winStoresN uint64

	// Statistics.
	safeStores, unsafeStores      uint64
	safeLoadBypass                uint64
	loadsChecked                  uint64
	checkingCycles, totalCycles   uint64
	replays                       Replays
	invActivations, invalidations uint64
	invPromotions                 uint64
	windowInsts, windowLoads      stats.Summary
	windowSafeLoads               stats.Summary
	windows, singleStoreWindows   uint64

	queueSearchCost float64 // one checking-queue search, precomputed
}

// NewDMDC builds the policy; em may be a zero energy.Model, which accounts
// nothing. An invalid configuration yields a *ConfigError.
func NewDMDC(cfg DMDCConfig, em *energy.Model) (*DMDC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, &ConfigError{Policy: "dmdc", Err: err}
	}
	d := &DMDC{
		cfg:             cfg,
		em:              em,
		ylaQW:           NewYLAFile(cfg.YLARegs, QuadWordShift),
		queueSearchCost: energy.CAMSearch(cfg.QueueSize, energy.AddressBits),
	}
	if cfg.Coherence {
		d.ylaLine = NewYLAFile(cfg.LineYLARegs, CacheLineShift)
	}
	if cfg.QueueSize == 0 {
		d.table = make([]tableEntry, cfg.TableSize)
		d.hash = newH0(cfg.TableSize)
	}
	return d, nil
}

// Name identifies the variant.
func (d *DMDC) Name() string {
	mode := "global"
	if d.cfg.Local {
		mode = "local"
	}
	if d.cfg.QueueSize > 0 {
		return fmt.Sprintf("dmdc-%s-q%d", mode, d.cfg.QueueSize)
	}
	return fmt.Sprintf("dmdc-%s-t%d", mode, d.cfg.TableSize)
}

// LoadCapacity returns the configured in-flight load limit.
func (d *DMDC) LoadCapacity() int { return d.cfg.LoadCap }

// LoadDispatch charges the hash-key FIFO allocation.
func (d *DMDC) LoadDispatch(*MemOp) {
	d.em.Add(energy.CompHashQueue, energy.FIFOAccess(16))
}

// LoadIssue records the load's hash key and updates the YLA registers —
// including for wrong-path loads, which is how YLA gets corrupted.
func (d *DMDC) LoadIssue(op *MemOp) {
	if d.cfg.QueueSize == 0 {
		op.HashKey = d.hash.index(op.Addr)
	}
	op.Bitmap = isa.QuadWordBitmap(op.Addr, op.Size)
	d.em.Add(energy.CompHashQueue, energy.FIFOAccess(16))
	d.ylaQW.Update(op.Addr, op.Age)
	d.em.Add(energy.CompYLA, energy.RegisterOp(20))
	if d.ylaLine != nil {
		d.ylaLine.Update(op.Addr, op.Age)
		d.em.Add(energy.CompYLA, energy.RegisterOp(20))
	}
}

// StoreResolve classifies the store via the YLA registers. Unsafe stores
// record (and, for global DMDC, publish) their checking-window boundary.
// DMDC never replays at resolve time.
func (d *DMDC) StoreResolve(op *MemOp) *Replay {
	d.em.Add(energy.CompYLA, energy.RegisterOp(20))
	safe := d.ylaQW.SafeStore(op.Addr, op.Age)
	boundary := d.ylaQW.Age(op.Addr)
	if d.ylaLine != nil {
		d.em.Add(energy.CompYLA, energy.RegisterOp(20))
		lineSafe := d.ylaLine.SafeStore(op.Addr, op.Age)
		// Safe if either set proves no younger load issued to this address;
		// when unsafe, the tighter (older) boundary still covers every
		// possibly-premature load, since such a load updates both sets.
		if lineSafe {
			safe = true
		} else if b := d.ylaLine.Age(op.Addr); b < boundary {
			boundary = b
		}
	}
	if safe {
		d.safeStores++
		return nil
	}
	d.unsafeStores++
	op.Unsafe = true
	op.Bitmap = isa.QuadWordBitmap(op.Addr, op.Size)
	op.EndAge = boundary
	if !d.cfg.Local {
		// Global end-check register is pushed forward at issue time.
		if boundary > d.endCheck {
			d.endCheck = boundary
		}
		d.em.Add(energy.CompYLA, energy.RegisterOp(20)) // end-check update
	}
	return nil
}

// StoreCommit marks the checking table (or queue) for unsafe stores and
// activates the checking mode.
func (d *DMDC) StoreCommit(op *MemOp) {
	if !op.Unsafe {
		return
	}
	if d.cfg.Local {
		if op.EndAge > d.endCheck {
			d.endCheck = op.EndAge
		}
		d.em.Add(energy.CompYLA, energy.RegisterOp(20))
	}
	ws := winStore{age: op.Age, addr: op.Addr, size: op.Size,
		resolveCycle: op.ResolveCycle, endAge: op.EndAge}
	if d.cfg.QueueSize > 0 {
		d.em.Add(energy.CompCheckTable, energy.RAMAccess(d.cfg.QueueSize, energy.AddressBits))
	} else {
		idx := d.hash.index(op.Addr)
		e := &d.table[idx]
		if e.wrt == 0 && !e.inv {
			d.dirty = append(d.dirty, idx)
		}
		e.wrt |= op.Bitmap
		d.em.Add(energy.CompCheckTable, energy.RAMAccess(d.cfg.TableSize, 5))
	}
	if len(d.windowStores) < maxWindowStores {
		d.windowStores = append(d.windowStores, ws)
	}
	if !d.checking {
		d.startWindow()
	}
	d.winStoresN++
}

// startWindow begins a checking window and resets its accumulators.
func (d *DMDC) startWindow() {
	d.checking = true
	d.winInsts, d.winLoads, d.winSafeLoads, d.winStoresN = 0, 0, 0, 0
}

// endChecking closes the window: flash-clears the table/queue, discards
// the window store records, and logs the window statistics.
func (d *DMDC) endChecking() {
	if !d.checking {
		return
	}
	d.checking = false
	for _, idx := range d.dirty {
		d.table[idx] = tableEntry{}
	}
	d.dirty = d.dirty[:0]
	d.windowStores = d.windowStores[:0]
	d.em.Add(energy.CompCheckTable, energy.RAMAccess(d.cfg.TableSize+d.cfg.QueueSize, 2))
	d.windows++
	if d.winStoresN == 1 {
		d.singleStoreWindows++
	}
	d.windowInsts.Observe(float64(d.winInsts))
	d.windowLoads.Observe(float64(d.winLoads))
	d.windowSafeLoads.Observe(float64(d.winSafeLoads))
}

// InstCommit counts window contents and terminates the checking mode once
// commit passes the end-check age.
func (d *DMDC) InstCommit(age uint64) {
	if !d.checking {
		return
	}
	if age > d.endCheck {
		d.endChecking()
		return
	}
	d.winInsts++
}

// LoadCommit performs the delayed dependence check.
func (d *DMDC) LoadCommit(op *MemOp) *Replay {
	d.em.Add(energy.CompHashQueue, energy.FIFOAccess(16))
	if !d.checking {
		return nil
	}
	d.winLoads++
	if d.cfg.SafeLoads && op.SafeAtIssue {
		d.winSafeLoads++
		d.safeLoadBypass++
		return nil
	}
	d.loadsChecked++
	if d.cfg.QueueSize > 0 {
		return d.queueCheck(op)
	}
	d.em.Add(energy.CompCheckTable, energy.RAMAccess(d.cfg.TableSize, 5))
	e := &d.table[op.HashKey]
	if e.wrt&op.Bitmap != 0 {
		cause := d.classify(op)
		d.replays[cause]++
		d.endChecking()
		return &Replay{FromAge: op.Age, Cause: cause}
	}
	if d.cfg.Coherence && e.inv {
		// First same-location load after the invalidation: promote so a
		// second one replays (write serialization, Section 4.3). The
		// entry is on the dirty list since Invalidate set its INV bit.
		e.wrt |= op.Bitmap
		e.invPromoted = true
		d.invPromotions++
		d.em.Add(energy.CompCheckTable, energy.RAMAccess(d.cfg.TableSize, 5))
	}
	return nil
}

// queue returns the checking queue: the window's first QueueSize stores.
func (d *DMDC) queue() []winStore {
	return d.windowStores[:min(len(d.windowStores), d.cfg.QueueSize)]
}

// overflowed reports whether the window holds more stores than the
// checking queue.
func (d *DMDC) overflowed() bool {
	return d.cfg.QueueSize > 0 && len(d.windowStores) > d.cfg.QueueSize
}

// queueCheck is the associative checking-queue variant of LoadCommit.
func (d *DMDC) queueCheck(op *MemOp) *Replay {
	d.em.Add(energy.CompCheckTable, d.queueSearchCost)
	if d.overflowed() {
		// The queue lost a store: conservatively replay the first checked
		// load so no violation can slip through.
		d.replays[CauseOverflow]++
		d.endChecking()
		return &Replay{FromAge: op.Age, Cause: CauseOverflow}
	}
	for i := range d.windowStores { // all in the queue: none overflowed
		ws := &d.windowStores[i]
		if isa.Overlap(op.Addr, op.Size, ws.addr, ws.size) {
			cause := d.classify(op)
			d.replays[cause]++
			d.endChecking()
			return &Replay{FromAge: op.Age, Cause: cause}
		}
	}
	return nil
}

// classify attributes a replay per the paper's Table 3 taxonomy, using the
// oracle timing captured on the MemOps.
func (d *DMDC) classify(op *MemOp) Cause {
	var addrAfterX, addrAfterY bool
	for i := range d.windowStores {
		ws := &d.windowStores[i]
		if !isa.Overlap(op.Addr, op.Size, ws.addr, ws.size) {
			continue
		}
		if op.IssueCycle < ws.resolveCycle {
			// The load really did issue before the store's address was
			// known: a genuine premature load.
			return CauseTrue
		}
		if op.Age <= ws.endAge {
			addrAfterX = true
		} else {
			addrAfterY = true
		}
	}
	if addrAfterX {
		return CauseFalseAddrX
	}
	if addrAfterY {
		return CauseFalseAddrY
	}
	// No true address overlap: a hashing conflict (or an INV promotion).
	var before, hashX, hashY, found bool
	for i := range d.windowStores {
		ws := &d.windowStores[i]
		if d.cfg.QueueSize == 0 && d.hash.index(ws.addr) != op.HashKey {
			continue
		}
		if d.cfg.QueueSize > 0 {
			continue // the queue has no hash conflicts
		}
		found = true
		if op.IssueCycle < ws.resolveCycle {
			before = true
		} else if op.Age <= ws.endAge {
			hashX = true
		} else {
			hashY = true
		}
	}
	switch {
	case before:
		return CauseFalseHashBefore
	case hashX:
		return CauseFalseHashX
	case hashY && found:
		return CauseFalseHashY
	default:
		// A store record was dropped by the windowStores cap, or the WRT
		// bits came from an invalidation promotion.
		return CauseInvalidation
	}
}

// Squash drops policy state for squashed ops. DMDC keeps no per-load
// structures beyond the hash-key FIFO (whose entries die with the ROB
// entries), and window stores have already committed, so only the
// committed-path invariant matters: nothing to unwind.
func (d *DMDC) Squash(uint64) {}

// Recover clamps the YLA registers to the recovery point (the paper's
// wrong-path remedy).
func (d *DMDC) Recover(age uint64) {
	d.ylaQW.Clamp(age)
	if d.ylaLine != nil {
		d.ylaLine.Clamp(age)
	}
}

// Invalidate handles an external invalidation: set INV bits for the line's
// quad words and open (or extend) a checking window bounded by the
// line-interleaved YLA set.
func (d *DMDC) Invalidate(lineAddr uint64) {
	d.invalidations++
	if !d.cfg.Coherence {
		return
	}
	boundary := d.ylaLine.Age(lineAddr)
	d.em.Add(energy.CompYLA, energy.RegisterOp(20))
	if boundary == 0 {
		// No load has issued to this bank: write serialization cannot have
		// been violated, so no window is needed.
		return
	}
	if d.cfg.QueueSize == 0 {
		lineBase := lineAddr &^ uint64(1<<CacheLineShift-1)
		for qw := uint64(0); qw < 1<<(CacheLineShift-QuadWordShift); qw++ {
			idx := d.hash.index(lineBase + qw*8)
			e := &d.table[idx]
			if e.wrt == 0 && !e.inv {
				d.dirty = append(d.dirty, idx)
			}
			e.inv = true
		}
		d.em.Add(energy.CompCheckTable, energy.RAMAccess(d.cfg.TableSize, 5))
	}
	if boundary > d.endCheck {
		d.endCheck = boundary
	}
	if !d.checking {
		d.startWindow()
		d.invActivations++
	}
}

// Tick accounts checking-mode residency.
func (d *DMDC) Tick() {
	d.totalCycles++
	if d.checking {
		d.checkingCycles++
	}
}

// Report writes the policy's counters into s.
func (d *DMDC) Report(s *stats.Set) {
	s.Add("safe_stores", float64(d.safeStores))
	s.Add("unsafe_stores", float64(d.unsafeStores))
	s.Add("safe_load_bypass", float64(d.safeLoadBypass))
	s.Add("loads_checked", float64(d.loadsChecked))
	s.Add("checking_cycles", float64(d.checkingCycles))
	s.Add("policy_cycles", float64(d.totalCycles))
	s.Add("windows", float64(d.windows))
	s.Add("single_store_windows", float64(d.singleStoreWindows))
	s.Add("window_insts_sum", d.windowInsts.Sum)
	s.Add("window_loads_sum", d.windowLoads.Sum)
	s.Add("window_safe_loads_sum", d.windowSafeLoads.Sum)
	s.Add("inv_received", float64(d.invalidations))
	s.Add("inv_activations", float64(d.invActivations))
	s.Add("inv_promotions", float64(d.invPromotions))
	d.replays.Report(s, "replay_", "replays_total")
}
