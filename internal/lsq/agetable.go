package lsq

import (
	"fmt"

	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/stats"
)

// AgeTableConfig parameterizes the related-work design of Garg et al.
// (ISLPED 2006), which the paper's Section 7 compares DMDC against: the
// associative LQ is replaced by a hash table that explicitly tracks, per
// entry, the age of the youngest load executed whose address hashes there.
// A store checks the entry at execution; a younger recorded age triggers
// an immediate replay.
//
// DMDC's claimed improvements over this design, which the AgeTable policy
// lets experiments quantify directly:
//   - one combined age+address table (wide entries, written by every load)
//     vs DMDC's few YLA registers + narrow 5-bit checking table;
//   - every store reads the table and every load writes it, vs DMDC's
//     2–5% unsafe stores and windowed load checks;
//   - detection at execution pollutes the table with wrong-path loads,
//     which DMDC's commit-time checking naturally avoids.
type AgeTableConfig struct {
	// TableSize is the number of age-table entries (power of two).
	TableSize int
	// LQSize bounds in-flight loads (a FIFO of table indices is retained
	// for deallocation, as in the original proposal).
	LQSize int
}

// Validate reports the first problem, or nil.
func (c AgeTableConfig) Validate() error {
	if !pow2(c.TableSize, 2) {
		return fmt.Errorf("age table size %d must be a power of two ≥ 2", c.TableSize)
	}
	if c.LQSize < 1 {
		return fmt.Errorf("load capacity %d must be positive", c.LQSize)
	}
	return nil
}

// ageEntry is one age-table slot: the youngest issued load age that hashed
// here, plus its sub-quad-word footprint.
type ageEntry struct {
	age    uint64
	bitmap uint8
}

// AgeTable implements the Garg et al. hash-table LQ replacement.
type AgeTable struct {
	cfg       AgeTableConfig
	em        *energy.Model
	table     []ageEntry
	hash      h0
	entryBits int

	searches uint64
	replays  Replays
	// loads tracked for squash cleanup (the table is an approximation, so
	// exact cleanup is impossible; the original relies on conservative
	// aging — modeled here by clamping on recovery).
}

// NewAgeTable builds the policy. An invalid configuration yields a
// *ConfigError.
func NewAgeTable(cfg AgeTableConfig, em *energy.Model) (*AgeTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, &ConfigError{Policy: "agetable", Err: err}
	}
	a := &AgeTable{
		cfg:   cfg,
		em:    em,
		table: make([]ageEntry, cfg.TableSize),
		hash:  newH0(cfg.TableSize),
		// Each entry stores a full age plus bitmap: wide (the paper's
		// criticism — "age information ... costs more bits").
		entryBits: 24,
	}
	return a, nil
}

// Name identifies the policy.
func (a *AgeTable) Name() string { return fmt.Sprintf("agetable-%d", a.cfg.TableSize) }

// LoadCapacity returns the in-flight load bound.
func (a *AgeTable) LoadCapacity() int { return a.cfg.LQSize }

// LoadDispatch is a no-op (allocation happens at issue).
func (a *AgeTable) LoadDispatch(*MemOp) {}

// LoadIssue records the load's age in its table entry — every load writes
// the (wide) table, wrong-path included.
func (a *AgeTable) LoadIssue(op *MemOp) {
	e := &a.table[a.hash.index(op.Addr)]
	bm := isa.QuadWordBitmap(op.Addr, op.Size)
	if op.Age > e.age {
		e.age = op.Age
	}
	// The bitmap always accumulates: the entry's age is only the youngest
	// recorded load, but older loads sharing the entry are still live, and
	// a store must see the union of their footprints. Replacing the bitmap
	// when a younger load arrives would let a store overlapping only the
	// older load's bytes slip past the check — a missed violation, the one
	// failure mode the design must not have. The union can only cause
	// extra (spurious) replays, which recovery clamps age out.
	e.bitmap |= bm
	a.em.Add(energy.CompCheckTable, energy.RAMAccess(a.cfg.TableSize, a.entryBits))
}

// StoreResolve indexes the table; a younger recorded age demands an
// immediate replay from that age (conservative: the recorded age is the
// youngest, so everything from the store onward could be stale — the
// original replays from the recorded load).
func (a *AgeTable) StoreResolve(op *MemOp) *Replay {
	a.searches++
	a.em.Add(energy.CompCheckTable, energy.RAMAccess(a.cfg.TableSize, a.entryBits))
	e := &a.table[a.hash.index(op.Addr)]
	if e.age <= op.Age {
		return nil
	}
	if e.bitmap&isa.QuadWordBitmap(op.Addr, op.Size) == 0 {
		return nil
	}
	// The entry only records the *youngest* matching age, so an older
	// load sharing the entry could be the real violator; the only sound
	// action is to replay everything younger than the store. The table
	// cannot tell hash aliasing from a true match either — attribute
	// conservatively (oracle classification needs per-load records the
	// design deliberately does not keep).
	cause := CauseFalseHashX
	a.replays[cause]++
	return &Replay{FromAge: op.Age + 1, Cause: cause}
}

// StoreCommit is a no-op.
func (a *AgeTable) StoreCommit(*MemOp) {}

// LoadCommit is a no-op: entries age out via recovery clamps and natural
// overwriting (the design's approximation).
func (a *AgeTable) LoadCommit(op *MemOp) *Replay {
	a.em.Add(energy.CompCheckTable, energy.RAMAccess(a.cfg.TableSize, 4))
	return nil
}

// InstCommit is a no-op.
func (a *AgeTable) InstCommit(uint64) {}

// Squash conservatively leaves entries in place (they only cause extra
// replays, never missed violations, since squashed ages are recycled at
// younger-or-equal values and ages compare conservatively).
func (a *AgeTable) Squash(uint64) {}

// Recover clamps all entries to the recovery age, the same remedy the YLA
// registers use.
func (a *AgeTable) Recover(age uint64) {
	for i := range a.table {
		if a.table[i].age > age {
			a.table[i].age = age
		}
	}
}

// Invalidate is not supported by the original design; ignored.
func (a *AgeTable) Invalidate(uint64) {}

// Tick is a no-op.
func (a *AgeTable) Tick() {}

// Report writes the policy's counters.
func (a *AgeTable) Report(s *stats.Set) {
	s.Add("agetable_searches", float64(a.searches))
	a.replays.Report(s, "replay_", "replays_total")
}
