// Package lsq implements the load-queue management schemes the paper
// studies, behind a single Policy interface driven by the pipeline in
// internal/core:
//
//   - CAM: the conventional fully-associative load queue (baseline),
//   - YLA: the baseline plus YLA-based filtering of LQ searches (Section 3),
//   - DMDC: delayed memory dependence checking with a checking table or an
//     associative checking queue, global or local windows, safe-load
//     bypassing, and INV bits for write serialization (Sections 4.2–4.4).
//
// The package also provides passive Monitors that measure what a filter
// *would* do on a baseline run (used for Figures 2 and 3), without
// affecting execution.
package lsq

import (
	"fmt"

	"dmdc/internal/stats"
)

// ConfigError is the typed validation failure returned by policy
// constructors: the policy name plus the first configuration problem.
// Constructors return it instead of panicking so experiment drivers can
// quarantine one bad spec without taking down a whole matrix run.
type ConfigError struct {
	Policy string
	Err    error
}

// Error renders the labeled problem.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("lsq: %s config: %v", e.Policy, e.Err)
}

// Unwrap exposes the underlying validation error.
func (e *ConfigError) Unwrap() error { return e.Err }

// Must unwraps a constructor result, panicking on error. For tests and
// examples whose configurations are static literals.
func Must[P Policy](p P, err error) P {
	if err != nil {
		panic(err)
	}
	return p
}

// MemOp is the record of one in-flight memory instruction, owned by the
// core and shared with the active policy. Oracle fields (IssueCycle,
// ResolveCycle) exist so DMDC can classify false replays the way the
// paper's Tables 3 and 5 do; policies never use them to make decisions.
type MemOp struct {
	Age       uint64 // dynamic age; unique, monotonically increasing
	IsLoad    bool
	Addr      uint64
	Size      uint8
	WrongPath bool

	Issued       bool
	IssueCycle   uint64 // cycle the load issued (oracle, for classification)
	ResolveCycle uint64 // cycle the store's address resolved (oracle)
	SafeAtIssue  bool   // loads: no older store had an unresolved address at issue
	FwdSeq       uint64 // loads: Seq of the store the value was forwarded from (oracle; 0 = cache)

	// Policy-owned scratch state.
	Unsafe  bool   // stores: YLA filter classified this store unsafe
	EndAge  uint64 // stores (local DMDC): recorded checking-window boundary
	HashKey uint32 // loads: checking-table index recorded at issue
	Bitmap  uint8  // sub-quad-word footprint bitmap
}

// Cause classifies a replay, following the paper's Table 3 taxonomy.
type Cause int

// Replay causes. "X" means the load falls inside the triggering store's own
// checking window; "Y" means it was only checked because overlapping
// windows merged.
const (
	CauseTrue            Cause = iota // genuine premature load (address match, load issued before the store resolved)
	CauseFalseAddrX                   // address match, load issued after the store, inside the real window
	CauseFalseAddrY                   // address match, load issued after the store, merged windows
	CauseFalseHashBefore              // hashing conflict, load issued before the store resolved
	CauseFalseHashX                   // hashing conflict, inside the real window
	CauseFalseHashY                   // hashing conflict, merged windows
	CauseOverflow                     // checking-queue overflow forced a conservative replay
	CauseInvalidation                 // INV-promoted entry (write-serialization enforcement)
	CauseSpurious                     // fault-injected replay (soundness stress, never organic)
	numCauses
)

// NumCauses is the number of replay causes.
const NumCauses = int(numCauses)

var causeNames = [...]string{
	CauseTrue:            "true_violation",
	CauseFalseAddrX:      "false_addr_x",
	CauseFalseAddrY:      "false_addr_y",
	CauseFalseHashBefore: "false_hash_before",
	CauseFalseHashX:      "false_hash_x",
	CauseFalseHashY:      "false_hash_y",
	CauseOverflow:        "overflow",
	CauseInvalidation:    "invalidation",
	CauseSpurious:        "spurious",
}

// String names the cause for reports.
func (c Cause) String() string {
	if c >= 0 && int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// Replay asks the core to squash from FromAge (inclusive) and refetch.
type Replay struct {
	FromAge uint64
	Cause   Cause
}

// Policy is one load-queue management scheme. The core invokes the hooks
// as the pipeline advances; a non-nil Replay return demands recovery.
//
// Hook order per instruction: LoadDispatch → LoadIssue → LoadCommit for
// loads; StoreResolve → StoreCommit for stores. Squash removes all state
// for ops with Age >= fromAge; Recover additionally applies age-register
// remedies (the paper's YLA clamp) with the recovery point's age.
type Policy interface {
	Name() string
	// LoadCapacity is the number of loads that may be in flight at once;
	// the core stalls dispatch beyond it. The conventional scheme returns
	// the LQ size; DMDC returns the ROB size (the paper's observation that
	// the in-flight load limit "can be easily made much higher").
	LoadCapacity() int
	LoadDispatch(op *MemOp)
	LoadIssue(op *MemOp)
	StoreResolve(op *MemOp) *Replay
	StoreCommit(op *MemOp)
	LoadCommit(op *MemOp) *Replay
	// InstCommit is called for every committed instruction (including
	// non-memory ones) so DMDC can measure checking-window contents.
	InstCommit(age uint64)
	Squash(fromAge uint64)
	Recover(age uint64)
	Invalidate(lineAddr uint64)
	Tick()
	Report(s *stats.Set)
}

// Monitor passively observes a run to measure what a filtering scheme
// would have done. All methods are notification-only.
type Monitor interface {
	Name() string
	LoadIssue(op *MemOp)
	StoreDispatch(op *MemOp)
	StoreResolve(op *MemOp)
	StoreCommit(op *MemOp)
	Squash(fromAge uint64)
	Recover(age uint64)
	Report(s *stats.Set)
}

// BaseMonitor provides no-op implementations of every Monitor hook so
// concrete monitors override only what they need.
type BaseMonitor struct{}

// Name identifies the base monitor; concrete monitors override it.
func (BaseMonitor) Name() string { return "base" }

// LoadIssue is a no-op.
func (BaseMonitor) LoadIssue(*MemOp) {}

// StoreDispatch is a no-op.
func (BaseMonitor) StoreDispatch(*MemOp) {}

// StoreResolve is a no-op.
func (BaseMonitor) StoreResolve(*MemOp) {}

// StoreCommit is a no-op.
func (BaseMonitor) StoreCommit(*MemOp) {}

// Squash is a no-op.
func (BaseMonitor) Squash(uint64) {}

// Recover is a no-op.
func (BaseMonitor) Recover(uint64) {}

// Report is a no-op.
func (BaseMonitor) Report(*stats.Set) {}
