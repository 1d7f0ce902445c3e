package lsq

import (
	"fmt"

	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/stats"
)

// ValueBasedConfig parameterizes the value-based verification scheme of
// Cain & Lipasti (ISCA 2004), the other LQ-replacement family the paper's
// Section 7 discusses: loads simply re-execute (re-access the L1 data
// cache) at commit and compare values; any premature load is caught by the
// comparison, so no address/timing tracking is needed at all. The cost is
// the one the paper calls out — "elevated memory bandwidth requirement":
// every verified load is an extra cache access.
//
// SVW enables Roth's Store Vulnerability Window filter (ISCA 2005): a
// small table records, per address hash, the sequence number of the last
// committed store; a load whose issue happened after that store committed
// is provably safe and skips re-execution. This recovers most of the
// bandwidth, at the price of a small indexed table — the same
// filter-then-verify structure DMDC uses, but keyed on store commit order
// rather than load issue age.
type ValueBasedConfig struct {
	// SVW enables the store-vulnerability-window filter.
	SVW bool
	// SVWSize is the filter table size (power of two), used when SVW is set.
	SVWSize int
	// LoadCap bounds in-flight loads (like DMDC, no associative LQ remains).
	LoadCap int
}

// Validate reports the first problem, or nil.
func (c ValueBasedConfig) Validate() error {
	if c.SVW && !pow2(c.SVWSize, 2) {
		return fmt.Errorf("SVW size %d must be a power of two ≥ 2", c.SVWSize)
	}
	if c.LoadCap < 1 {
		return fmt.Errorf("load capacity %d must be positive", c.LoadCap)
	}
	return nil
}

// ValueBased implements commit-time re-execution with optional SVW
// filtering. The simulator carries no data values, so the value comparison
// is resolved with the oracle: a re-executed load "miscompares" exactly
// when a genuine ordering violation occurred (an older overlapping store
// resolved after the load issued). This matches the scheme's guarantee —
// value checking catches precisely the loads that read stale data.
type ValueBased struct {
	cfg  ValueBasedConfig
	em   *energy.Model
	svw  []uint64 // last committed store sequence per hash bucket
	hash h0

	// Committed-store tracking for the oracle comparison: recent stores
	// that resolved "late" are the only possible violation sources. The
	// last recentWindow committed stores sit in a fixed ring: it fills by
	// appending, then the oldest entry, at recentHead, is overwritten.
	recentStores []winStore
	recentHead   int
	storeSeq     uint64

	reexecutions uint64
	svwFiltered  uint64
	replays      Replays
}

// NewValueBased builds the policy. An invalid configuration yields a
// *ConfigError.
func NewValueBased(cfg ValueBasedConfig, em *energy.Model) (*ValueBased, error) {
	if err := cfg.Validate(); err != nil {
		return nil, &ConfigError{Policy: "value-based", Err: err}
	}
	v := &ValueBased{cfg: cfg, em: em}
	if cfg.SVW {
		v.svw = make([]uint64, cfg.SVWSize)
		v.hash = newH0(cfg.SVWSize)
	}
	return v, nil
}

// Name identifies the variant.
func (v *ValueBased) Name() string {
	if v.cfg.SVW {
		return fmt.Sprintf("value-svw%d", v.cfg.SVWSize)
	}
	return "value-based"
}

// LoadCapacity returns the in-flight load bound.
func (v *ValueBased) LoadCapacity() int { return v.cfg.LoadCap }

// LoadDispatch is a no-op (no LQ exists).
func (v *ValueBased) LoadDispatch(*MemOp) {}

// LoadIssue records the issue-time store sequence on the op: if no store
// to the load's bucket commits after this point, the load is invulnerable,
// and only the stores committed after it are checked at commit.
func (v *ValueBased) LoadIssue(op *MemOp) {
	// Reuse EndAge as "store sequence at issue" scratch state.
	op.EndAge = v.storeSeq
}

// StoreResolve never replays: verification is entirely at commit.
func (v *ValueBased) StoreResolve(*MemOp) *Replay { return nil }

// StoreCommit advances the store sequence and stamps the SVW table.
func (v *ValueBased) StoreCommit(op *MemOp) {
	v.storeSeq++
	if v.cfg.SVW {
		v.svw[v.hash.index(op.Addr)] = v.storeSeq
		v.em.Add(energy.CompCheckTable, energy.RAMAccess(v.cfg.SVWSize, 16))
	}
	// Track recent stores for the oracle comparison (bounded).
	st := winStore{age: op.Age, addr: op.Addr, size: op.Size, resolveCycle: op.ResolveCycle}
	if len(v.recentStores) < recentWindow {
		v.recentStores = append(v.ring(), st)
		return
	}
	v.recentStores[v.recentHead] = st
	v.recentHead = (v.recentHead + 1) % recentWindow
}

// recentWindow is how many committed stores ValueBased keeps.
const recentWindow = 512

// ring returns the recent-store ring, its storage allocated once at its
// full size.
func (v *ValueBased) ring() []winStore {
	if v.recentStores == nil {
		v.recentStores = make([]winStore, 0, recentWindow)
	}
	return v.recentStores
}

// LoadCommit re-executes the load (an extra L1D access) unless the SVW
// filter proves it invulnerable, and replays on a value mismatch.
func (v *ValueBased) LoadCommit(op *MemOp) *Replay {
	if v.cfg.SVW {
		v.em.Add(energy.CompCheckTable, energy.RAMAccess(v.cfg.SVWSize, 16))
		if v.svw[v.hash.index(op.Addr)] <= op.EndAge {
			// No store to this bucket committed since the load issued.
			v.svwFiltered++
			return nil
		}
	}
	v.reexecutions++
	// The re-execution is an extra data-cache access: the bandwidth cost
	// the paper's Section 7 highlights. Charged to the L1D.
	v.em.Add(energy.CompL1D, energy.RAMAccess(512, 64))
	// Oracle value comparison: stale data iff an older overlapping store
	// resolved after this load issued. Stores commit in age order, and a
	// cycle commits before it issues, so the first op.EndAge stores
	// committed, and resolved, before the load issued: only the newest
	// storeSeq − EndAge entries of the ring can be stale. They are read
	// newest first; any match replays the load alike.
	n := min(v.storeSeq-op.EndAge, uint64(len(v.recentStores)))
	for i := v.recentHead; n > 0; n-- {
		if i == 0 {
			i = len(v.recentStores)
		}
		i--
		st := &v.recentStores[i]
		if st.age < op.Age && isa.Overlap(st.addr, st.size, op.Addr, op.Size) &&
			op.IssueCycle < st.resolveCycle {
			v.replays[CauseTrue]++
			return &Replay{FromAge: op.Age, Cause: CauseTrue}
		}
	}
	return nil
}

// InstCommit is a no-op.
func (v *ValueBased) InstCommit(uint64) {}

// Squash is a no-op (no per-load structures).
func (v *ValueBased) Squash(uint64) {}

// Recover is a no-op: value checking needs no age repair.
func (v *ValueBased) Recover(uint64) {}

// Invalidate is handled naturally by value re-execution (stale lines
// re-read at commit); nothing to do in this model.
func (v *ValueBased) Invalidate(uint64) {}

// Tick is a no-op.
func (v *ValueBased) Tick() {}

// Report writes the policy's counters.
func (v *ValueBased) Report(s *stats.Set) {
	s.Add("reexecutions", float64(v.reexecutions))
	s.Add("svw_filtered", float64(v.svwFiltered))
	v.replays.Report(s, "replay_", "replays_total")
}
