package soundness

import (
	"fmt"
	"strings"

	"dmdc/internal/isa"
	"dmdc/internal/lsq"
)

// InstSource yields a stream of instructions. core.Workload satisfies it
// structurally, which is what keeps this package free of a core import.
type InstSource interface {
	Next() isa.Inst
}

// Oracle is the lockstep architectural reference model. It consumes a
// second copy of the workload stream in order and, at every out-of-order
// commit, verifies three things:
//
//  1. Stream equality: the committed instruction is exactly the next
//     in-order instruction (PC, registers, address, branch outcome — the
//     whole record). Any scheduling bug that commits a wrong, duplicated,
//     or skipped instruction surfaces here.
//  2. Load values: the simulator carries no data, so the oracle gives
//     every byte of memory an identity — the sequence number of the store
//     that last wrote it. A committed load's observed bytes (from its
//     forwarding source, or from the cache state visible at its final
//     issue cycle) must equal the bytes the architectural in-order model
//     holds. A premature load that slipped past the policy observes a
//     stale identity and is caught at its commit.
//  3. Store order: stores drain at commit in program order; each updates
//     the byte identities, so an out-of-order drain would surface as a
//     later load-value divergence.
//
// The oracle's memory model is exact, keyed by quad word. Aligned accesses
// never cross a quad-word boundary (the ISA requires addr % size == 0 and
// size ≤ 8), so each access touches exactly one bucket.
type Oracle struct {
	ref  InstSource
	ring *EventRing

	commits uint64
	cycle   uint64 // cycle of the most recent commit fed to the oracle

	// Architectural memory: quad word -> byte identities + pending
	// committed writes that in-flight loads might still legitimately miss.
	mem map[uint64]*qwState

	// Last committed writer of each architectural register (diagnostics).
	regWriter [isa.NumRegs]uint64

	// In-flight issued loads: age -> issue cycle. Bounds how far committed
	// writes can be folded into the base image.
	inflight map[uint64]uint64

	loadsChecked  uint64
	storesTracked uint64
}

// writeRec is one committed store's write to a quad word, kept until no
// in-flight load could have issued before it drained.
type writeRec struct {
	seq         uint64 // store sequence number (byte identity)
	commitCycle uint64 // cycle the store drained to the cache
	off, size   uint8  // byte range within the quad word
}

// qwState is the oracle's image of one quad word: the settled byte
// identities plus the recent committed writes not yet folded in.
type qwState struct {
	base [8]uint64
	recs []writeRec
}

// compactThreshold bounds recs growth before a fold-in attempt.
const compactThreshold = 16

// NewOracle builds the reference model over its own copy of the workload
// stream. ring may be nil; when set, error reports carry its snapshot.
func NewOracle(ref InstSource, ring *EventRing) *Oracle {
	return &Oracle{
		ref:      ref,
		ring:     ring,
		mem:      make(map[uint64]*qwState),
		inflight: make(map[uint64]uint64),
	}
}

// LoadIssued records that the load with the given age issued at the given
// cycle. The core calls it at every successful load issue; the recorded
// cycle pins how much committed-store history the oracle must retain.
func (o *Oracle) LoadIssued(age, cycle uint64) {
	o.inflight[age] = cycle
}

// Squashed drops in-flight load records with age >= fromAge. The core
// calls it on every squash, before the ages are recycled.
func (o *Oracle) Squashed(fromAge uint64) {
	for age := range o.inflight {
		if age >= fromAge {
			delete(o.inflight, age)
		}
	}
}

// Commit verifies one committed instruction. op is the instruction's
// memory record (nil for non-memory ops); age is its ROB age and cycle
// the commit cycle. A non-nil return is the first divergence; the
// oracle's state is then unspecified and the simulation should stop.
func (o *Oracle) Commit(in isa.Inst, op *lsq.MemOp, age, cycle uint64) error {
	o.cycle = cycle
	want := o.ref.Next()
	if in != want {
		err := o.fail(KindStreamDivergence, in, age, in.String(), want.String())
		o.commits++
		return err
	}
	o.commits++
	switch {
	case in.Op.IsLoad():
		if err := o.commitLoad(in, op, age); err != nil {
			return err
		}
	case in.Op.IsStore():
		o.commitStore(in, cycle)
	}
	if in.HasDest() {
		o.regWriter[in.Dest] = in.Seq
	}
	return nil
}

// commitLoad checks the load's observed bytes against the architectural
// image and retires its in-flight record.
func (o *Oracle) commitLoad(in isa.Inst, op *lsq.MemOp, age uint64) error {
	o.loadsChecked++
	if op != nil {
		defer delete(o.inflight, op.Age)
	}
	if op == nil || !op.Issued {
		return o.fail(KindLoadValue, in, age, "load committed without issuing", "an issued load")
	}
	st := o.mem[isa.QuadWord(in.Addr)]
	off := uint8(in.Addr & 7)
	want := o.bytesAt(st, off, in.Size, ^uint64(0)) // full program-order image
	var got [8]uint64
	if op.FwdSeq != 0 {
		// Forwarded: every byte carries the source store's identity.
		for i := range got[:in.Size] {
			got[i] = op.FwdSeq
		}
	} else {
		// Cache read: the load observes stores drained no later than its
		// final issue cycle (commit runs before issue within a cycle, so a
		// store committed at cycle C is visible to a load issuing at C).
		got = o.bytesAt(st, off, in.Size, op.IssueCycle)
	}
	if got != want {
		return o.fail(KindLoadValue, in, age,
			formatBytes(got, in.Size)+fwdNote(op), formatBytes(want, in.Size))
	}
	if st != nil && len(st.recs) > compactThreshold {
		o.compact(st)
	}
	return nil
}

// commitStore records the store's byte identities and prunes history.
func (o *Oracle) commitStore(in isa.Inst, cycle uint64) {
	o.storesTracked++
	qw := isa.QuadWord(in.Addr)
	st := o.mem[qw]
	if st == nil {
		st = &qwState{}
		o.mem[qw] = st
	}
	st.recs = append(st.recs, writeRec{
		seq:         in.Seq,
		commitCycle: cycle,
		off:         uint8(in.Addr & 7),
		size:        in.Size,
	})
	if len(st.recs) > compactThreshold {
		o.compact(st)
	}
}

// bytesAt materializes size byte identities starting at off: the base
// image plus every recorded write with commitCycle <= visibleBy, applied
// in commit order.
func (o *Oracle) bytesAt(st *qwState, off, size uint8, visibleBy uint64) [8]uint64 {
	var out [8]uint64
	if st == nil {
		return out
	}
	img := st.base
	for _, r := range st.recs {
		if r.commitCycle > visibleBy {
			continue
		}
		for b := r.off; b < r.off+r.size; b++ {
			img[b] = r.seq
		}
	}
	copy(out[:size], img[off:off+size])
	return out
}

// compact folds writes no in-flight (or future) load can miss into the
// base image. The safe horizon is the earliest issue cycle among issued
// in-flight loads: loads not yet issued will issue at the current cycle or
// later, and the visibility rule is commitCycle <= issueCycle.
func (o *Oracle) compact(st *qwState) {
	safe := o.cycle
	for _, c := range o.inflight {
		if c < safe {
			safe = c
		}
	}
	kept := st.recs[:0]
	for _, r := range st.recs {
		if r.commitCycle <= safe {
			for b := r.off; b < r.off+r.size; b++ {
				st.base[b] = r.seq
			}
		} else {
			kept = append(kept, r)
		}
	}
	st.recs = kept
}

// Checked returns how many instructions and loads the oracle verified.
func (o *Oracle) Checked() (insts, loads uint64) { return o.commits, o.loadsChecked }

// fail builds a SoundnessError with the current position and the event
// window.
func (o *Oracle) fail(kind Kind, in isa.Inst, age uint64, got, want string) *SoundnessError {
	return &SoundnessError{
		Kind:   kind,
		Age:    age,
		PC:     in.PC,
		Seq:    in.Seq,
		Cycle:  o.cycle,
		Commit: o.commits,
		Got:    got,
		Want:   want,
		Events: o.ring.Snapshot(),
	}
}

// formatBytes renders byte identities as store sequence numbers.
func formatBytes(b [8]uint64, size uint8) string {
	parts := make([]string, size)
	for i := uint8(0); i < size; i++ {
		if b[i] == 0 {
			parts[i] = "init"
		} else {
			parts[i] = fmt.Sprintf("s%d", b[i])
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// fwdNote annotates where a load's observed value came from.
func fwdNote(op *lsq.MemOp) string {
	if op.FwdSeq != 0 {
		return fmt.Sprintf(" (forwarded from store seq %d)", op.FwdSeq)
	}
	return fmt.Sprintf(" (cache read at issue cycle %d)", op.IssueCycle)
}
