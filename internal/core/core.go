// Package core implements the cycle-level out-of-order superscalar
// pipeline used as the paper's evaluation substrate (standing in for the
// authors' heavily modified SimpleScalar + Wattch): an 8-wide machine with
// a ROB, split INT/FP issue queues, physical-register limits, a combined
// branch predictor with real wrong-path execution, a store queue with
// forwarding, load rejection and partial-match handling, speculative load
// issue, and a pluggable load-queue management policy from internal/lsq.
//
// The simulator is trace-driven: instructions carry their own outcomes
// (addresses, branch directions), so "execution" is pure timing. The
// committed instruction stream always equals the generator's stream, which
// tests exploit as an end-to-end oracle.
package core

import (
	"context"
	"fmt"

	"dmdc/internal/bpred"
	"dmdc/internal/cache"
	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/soundness"
	"dmdc/internal/stats"
	"dmdc/internal/telemetry"
	"dmdc/internal/trace"
	"dmdc/internal/xrand"
)

// entry states.
const (
	stWaiting   uint8 = iota // dispatched, in issue queue
	stIssued                 // executing (loads: access in flight; stores: address resolved)
	stCompleted              // result available / ready to commit
)

// hotEntry is the half of a ROB slot the per-cycle stages touch: the
// issue stage reads age, notBefore, the producer links, state, and the
// op class of every ready candidate, and the complete and commit stages
// test the same fields. At 48 bytes, a 256-entry ROB's hot state is
// ~12KB — resident in L1 — where ~200-byte combined entries would span
// four lines each. The bulky instruction and branch-recovery state live
// in the parallel robData array, touched once per stage transition, and
// the per-slot MemOps in the memOps arena (struct-of-arrays, all indexed
// by the same slot).
type hotEntry struct {
	age       uint64
	notBefore uint64 // earliest cycle the op may (re)attempt issue

	compCycle uint64 // cycle the last scheduled completion event fires

	// Producer ages of the source operands, captured at rename time
	// (0 means the value was already architectural). srcNIdx is the
	// producer's ROB slot so readiness checks skip the age-to-slot
	// arithmetic; it is set to -1 the first time the producer is seen
	// completed (readiness is monotonic: squashing the older producer
	// always squashes this younger consumer too).
	src1Prod uint64
	src2Prod uint64
	src1Idx  int32
	src2Idx  int32

	epoch uint32 // squash generation; invalidates stale events on recycled ages
	state uint8
	flags uint8
	op    isa.Op // copy of the instruction's op, for FU class tests
}

// hotEntry flag bits.
const (
	fWrongPath    uint8 = 1 << iota // fetched down a mispredicted path
	fAddrResolved                   // stores: address operand executed
	fDataReady                      // stores: data operand ready
	fHasMem                         // slot's memOps arena entry is live
	fHasDest                        // instruction writes a register
)

func (h *hotEntry) wrongPath() bool { return h.flags&fWrongPath != 0 }

// robData is the cold half of a ROB slot: the full instruction plus the
// branch-recovery state, read at stage boundaries (dispatch, branch
// resolve, commit, squash) but never by the issue stage's gates.
type robData struct {
	inst isa.Inst

	// Branch state.
	pred         bpred.Prediction
	histCp       uint32
	mispredicted bool
	predicted    bool // correct-path branch that consulted the predictor
}

// sqEntry is one store-queue slot (core-owned: forwarding is common to all
// LQ policies).
type sqEntry struct {
	age          uint64
	seq          uint64 // trace sequence number (forwarding identity)
	addr         uint64
	size         uint8
	addrResolved bool
	dataReady    bool
}

// Option customizes a Sim.
type Option func(*Sim)

// WithMonitors attaches passive measurement monitors.
func WithMonitors(ms ...lsq.Monitor) Option {
	return func(s *Sim) { s.monitors = append(s.monitors, ms...) }
}

// WithInvalidations injects external invalidations at the given expected
// rate per 1000 cycles, at random lines of the benchmark's working set. A
// rate outside [0, 1000], or NaN, makes New fail.
func WithInvalidations(ratePer1000 float64) Option {
	return func(s *Sim) { s.invRate = ratePer1000 / 1000.0 }
}

// WithSQFilter enables the paper's Section 3 store-side extension: a
// single age register tracking the oldest in-flight store lets any older
// load skip the associative SQ search entirely ("such loads are not rare —
// about 20%"). The paper suggests but does not evaluate this; it is
// implemented here as the natural dual of YLA filtering.
func WithSQFilter() Option {
	return func(s *Sim) { s.sqFilter = true }
}

// WithTape makes a Sim built by New replay t, a recording of its profile's
// committed path, instead of generating that path; wrong paths are still
// generated, and past the end of t generation continues live, so the run
// is byte-identical to one without the tape. Many Sims, on any goroutines,
// may replay one tape. A Sim that replays a tape cannot be checkpointed
// or fast-forwarded, and New fails if t was recorded from another profile
// or the Sim is built by NewWithWorkload. Without a tape, a Sim over its
// own generator records its path on a helper goroutine while it runs and
// replays that (stream.go); a tape, recorded once for many Sims, spares
// the recording too.
func WithTape(t *trace.Tape) Option {
	return func(s *Sim) { s.tape = t }
}

// FetchAhead bounds how many committed-path instructions a Sim on m draws
// from its workload beyond its instruction budget: a run may overshoot
// the budget by less than a commit group, and then holds at most a full
// ROB and fetch queue of younger instructions. A tape this much longer
// than the budget lets a cell replay to its end, and a streamed Sim's
// producer records no further than this past the run's budget.
func FetchAhead(m config.Machine) int {
	return m.CommitWidth + m.ROBSize + 3*m.FetchWidth
}

// Sim is one simulated processor running one benchmark. Not safe for
// concurrent use; run different benchmarks on different Sims.
type Sim struct {
	cfg config.Machine
	wl  Workload
	pol lsq.Policy
	em  *energy.Model
	bp  *bpred.Predictor
	mem *cache.Hierarchy

	monitors   []lsq.Monitor
	invRate    float64
	invRng     *xrand.Rand
	commitHook func(isa.Inst) // set by tests: sees every committed instruction
	ptrace     *pipeTrace

	cycle   uint64
	nextAge uint64

	// ROB ring buffer; ages of live entries are contiguous. robHot,
	// robData, and memOps are parallel struct-of-arrays sharing slot
	// indices. memOps is an arena: every memory instruction's MemOp
	// lives in the slot matching its ROB slot, overwritten in place
	// when the age recycles — policies receive stable pointers into it
	// and must drop them by commit/squash time (the same lifetime
	// contract the old free list enforced).
	robHot  []hotEntry
	robData []robData
	memOps  []lsq.MemOp
	headIdx int
	count   int
	headAge uint64

	// arena, when set via WithArena, owns the backing arrays above, the
	// scheduler and fetch queues, and the per-run tables (bp, mem, invRng
	// and, for a New-built Sim, the generator behind wl); RunContext
	// writes regrown queue headers back to it so the next run reuses them.
	arena *Arena

	// poisoned records the first error a run ended with. A failed run
	// leaves the pipeline mid-cycle, so every later RunContext fails fast
	// with a *PoisonedError instead of stepping corrupt state.
	poisoned error

	// Fetch plumbing. fetchQ and replayQ are consumed from the front; both
	// use a head index instead of re-slicing so a pop is O(1), with
	// occasional compaction to keep the backing arrays bounded. The fetch
	// queue is split struct-of-arrays style: fetchQ holds the instructions
	// themselves (so a batching workload can generate directly into the
	// queue slots), fetchQMeta the per-slot prediction state.
	fetchQ     []isa.Inst
	fetchQMeta []fetchMeta
	fqHead     int
	replayQ    []isa.Inst // correct-path instructions to re-inject after a replay
	rqHead     int
	// squashScratch carries the squashed-but-correct-path instructions from
	// squashAfter into flushFetchQ, where it ping-pongs with replayQ's
	// backing array; the two never alias.
	squashScratch []isa.Inst
	wpActive      bool
	wpStream      InstSource
	wpBranchAge   uint64
	fetchResume   uint64 // fetch stalled until this cycle
	fetchSalt     uint64
	lastGenPC     uint64 // next correct-path fetch PC (I-cache proxy)
	lastWPPC      uint64 // next wrong-path fetch PC

	// Scheduling (see wakeup.go), all slot-indexed and arena-backed:
	// readyBM is the issue-ready bitmap (readyCnt its exact population
	// count), and consHead/consNext/consPrev/consOn form the intrusive
	// doubly-linked per-producer consumer lists (-1 terminated; consOn[c]
	// is the producer slot c is parked on, -1 when not parked).
	readyBM  []uint64
	readyCnt int
	consHead []int32
	consNext []int32
	consPrev []int32
	consOn   []int32
	dataWait []wheelEv // stores whose data operand is pending (epoch-tagged)
	// dwMark[p] is set while a store in dataWait waits on the result of
	// slot p; dwPending is set when a marked slot completes, so the next
	// completeStage walks dataWait (exec.go).
	dwMark    []bool
	dwPending bool
	wheel     [][]wheelEv
	epoch     uint32
	iqInt     int
	iqFP      int

	// Register state.
	regProducer [isa.NumRegs]uint64
	freeInt     int
	freeFP      int

	// Store queue, age-ordered, and its search index (arena-backed).
	sq    []sqEntry
	sqIdx *sqIndex

	// In-flight load count (policy capacity gate).
	inflightLoads int
	loadCap       int     // policy LoadCapacity, resolved once at construction
	wlBatch       Batcher // wl's batch refinement or stream, nil if neither
	stream        *stream // the streamed committed path, nil if wl is not core's generator
	faultsActive  bool    // !faults.Zero(), cached off the dispatch path

	// Concrete fast paths for the two hot policy implementations. Resolved
	// once at construction; the per-cycle and per-commit policy calls branch
	// on these instead of dispatching through the interface, which lets the
	// compiler inline the no-op and two-counter bodies.
	polCAM  *lsq.CAM
	polDMDC *lsq.DMDC

	// tracing caches (ring != nil || ptrace != nil) so hot stages can skip
	// the traceEvent call (and its argument setup) with one flag test.
	tracing bool

	// Optional store-side age filter (Section 3 extension).
	sqFilter         bool
	sqSearches       uint64
	sqSearchFiltered uint64

	// Telemetry layer (see telemetry.go and internal/telemetry). tel == nil
	// is the fast path: a disabled layer costs the hot loop one pointer
	// test per cycle (plus short-circuited bool tests on the rare paths).
	tel            *telemetry.Sampler
	telProbe       lsq.TelemetryProbe
	telStride      uint64
	telCountdown   uint64
	telFetched     uint64 // instructions fetched (both paths)
	telIssued      uint64 // instructions issued
	stalls         telemetry.StallCounts
	dispStalls     telemetry.DispatchCounts
	replayPending  bool   // a memory-order replay is being recovered
	replayUntilAge uint64 // ...until this age commits again

	// Soundness layer (see soundness.go and internal/soundness).
	oracleRef          InstSource
	oracle             *soundness.Oracle
	faults             soundness.FaultSpec
	ring               *soundness.EventRing
	ringWanted         bool
	watchdogBudget     uint64
	invariantEvery     uint64
	lastCommitCycle    uint64
	simErr             error
	storeSeen          uint64 // dispatched stores (store-delay fault counter)
	markedWP           bool   // the markwp corruption fired
	loadCommitAttempts uint64 // load commit attempts (spurious-replay counter)
	faultsInjected     uint64

	// Statistics.
	committed            uint64
	cstats               *stats.Set
	replayCounts         lsq.Replays
	replaysWrongPath     uint64 // replays landing entirely on the wrong path
	loadRejections       uint64
	forwards             uint64
	wrongPathFetched     uint64
	invInjected          uint64
	mispredictRecoveries uint64

	// Cached energy costs.
	costSQSearch, costSQWrite         float64
	costROB, costRename, costRegfile  float64
	costIQ, costBPred                 float64
	costL1I, costL1D, costL2, costALU float64

	// tape, when set by WithTape, is the committed path New replays.
	tape *trace.Tape

	// lastSave is the length of the last SaveCheckpoint record, which
	// sizes the next save's buffer, and ffRing backs warm fast-forward's
	// block ring (see fastforward.go), allocated on first use. Both are
	// cold, so they sit after the per-cycle fields.
	lastSave int
	ffRing   []isa.Inst
}

// wheelEv is one scheduled completion on the event wheel.
type wheelEv struct {
	age   uint64
	epoch uint32
}

// fetchMeta is the prediction state of one fetch-queue slot; the
// instruction itself lives in the parallel fetchQ slice.
type fetchMeta struct {
	wrongPath bool
	pred      bpred.Prediction
	histCp    uint32
	mispred   bool
	predicted bool
}

const wheelSize = 512

// New builds a simulator running the built-in synthetic benchmark for
// prof. The policy and energy model are supplied by the caller so
// experiments can wire any combination (pass a zero energy.Model to skip
// accounting). Errors report invalid machine configurations or fault
// specs; MustSim unwraps the pair where inputs are static. On an arena
// (WithArena), the generator is the arena's, reset for prof.
func New(cfg config.Machine, prof trace.Profile, pol lsq.Policy, em *energy.Model, opts ...Option) (*Sim, error) {
	return build(cfg, nil, &prof, pol, em, opts)
}

// NewWithWorkload builds a simulator over any Workload — a recorded trace
// file, a hand-written stream, or the synthetic generator.
func NewWithWorkload(cfg config.Machine, wl Workload, pol lsq.Policy, em *energy.Model, opts ...Option) (*Sim, error) {
	return build(cfg, wl, nil, pol, em, opts)
}

// build is New (prof set) and NewWithWorkload (wl set). The per-run
// tables come from the arena, which the options may supply, so they are
// reset only after every option has run.
func build(cfg config.Machine, wl Workload, prof *trace.Profile, pol lsq.Policy, em *energy.Model, opts []Option) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid machine config: %w", err)
	}
	s := &Sim{
		cfg:            cfg,
		wl:             wl,
		pol:            pol,
		em:             em,
		nextAge:        1,
		headAge:        1,
		freeInt:        cfg.IntRegs - isa.NumIntRegs,
		freeFP:         cfg.FPRegs - isa.NumFPRegs,
		cstats:         stats.NewSet(),
		watchdogBudget: DefaultWatchdogBudget,
	}
	s.initCosts()
	for _, opt := range opts {
		opt(s)
	}
	// At most one invalidation per cycle; NaN fails both comparisons.
	if !(s.invRate >= 0 && s.invRate <= 1) {
		return nil, fmt.Errorf("core: invalidation rate %g per 1000 cycles is outside [0, 1000]", s.invRate*1000)
	}
	// Per-run storage and tables: drawn from the caller's arena when one
	// was supplied (reset, not freed, between runs), from a private fresh
	// arena otherwise — either way the wheel gets its flat preallocated
	// slot backing.
	a := s.arena
	if a == nil {
		a = NewArena()
	}
	switch {
	case s.tape != nil && prof == nil:
		return nil, fmt.Errorf("core: a tape replaces a profile's generator; NewWithWorkload has none")
	case s.tape != nil && s.tape.Profile() != *prof:
		return nil, fmt.Errorf("core: tape of %s cannot stand in for %s", s.tape.Profile().Name, prof.Name)
	case s.tape != nil:
		a.tape.Reset(&a.gen, s.tape)
		a.gen.EnableWrongPathReuse()
		s.wl = tapeWorkload{generatorView{g: &a.gen}, &a.tape}
	case prof != nil:
		a.gen.Reset(*prof)
		s.wl = FromGenerator(&a.gen)
	}
	if err := a.ensure(cfg, s.wl.Meta().Seed^0x1234_5678); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	a.attach(s)
	if err := s.finishSoundness(); err != nil {
		return nil, err
	}
	// Resolve the hot-path shortcuts once, after every option has run: the
	// policy's capacity gate, the concrete policy fast paths, and whether
	// any tracing sink is attached.
	s.loadCap = pol.LoadCapacity()
	// Assert on s.wl, not the constructor argument: finishSoundness may have
	// wrapped the workload (alias faults), and the wrapper must see every
	// instruction the batch path produces. A Sim over core's own generator
	// streams its committed path (stream.go).
	switch w := s.wl.(type) {
	case generatorWorkload:
		a.stream.reset(w.g)
		s.stream = &a.stream
		s.wlBatch = s.stream
	case Batcher:
		s.wlBatch = w
	}
	s.faultsActive = !s.faults.Zero()
	switch p := pol.(type) {
	case *lsq.CAM:
		s.polCAM = p
	case *lsq.DMDC:
		s.polDMDC = p
	}
	s.tracing = s.ring != nil || s.ptrace != nil
	s.finishTelemetry()
	s.lastGenPC = s.wl.EntryPC()
	return s, nil
}

// initCosts precomputes geometry-scaled per-event energies.
func (s *Sim) initCosts() {
	c := s.cfg
	s.costSQSearch = energy.CAMSearch(c.SQSize, energy.AddressBits)
	s.costSQWrite = energy.CAMAccess(c.SQSize, energy.AddressBits+16)
	s.costROB = energy.RAMAccess(c.ROBSize, 64)
	s.costRename = energy.RAMAccess(isa.NumRegs, 16)
	s.costRegfile = energy.RAMAccess(c.IntRegs, 64)
	s.costIQ = energy.CAMSearch(c.IQInt, 10)
	s.costBPred = energy.RAMAccess(c.BPred.GshareEntries, 2) * 3
	s.costL1I = energy.RAMAccess(c.Memory.L1I.Sets(), c.Memory.L1I.LineB)
	s.costL1D = energy.RAMAccess(c.Memory.L1D.Sets(), c.Memory.L1D.LineB)
	s.costL2 = energy.RAMAccess(c.Memory.L2.Sets(), c.Memory.L2.LineB)
	s.costALU = 0.45
}

// idxOf maps a live age to its ROB slot. For a live age the offset from
// the head is below the ROB size, so one conditional subtract replaces the
// modulo — an integer division by a non-constant that the issue loop
// otherwise pays per operand check.
func (s *Sim) idxOf(age uint64) int {
	i := s.headIdx + int(age-s.headAge)
	if n := len(s.robHot); i >= n {
		i -= n
	}
	return i
}

// live reports whether age denotes a current ROB entry.
func (s *Sim) live(age uint64) bool {
	return s.count > 0 && age >= s.headAge && age < s.headAge+uint64(s.count)
}

// hotOf returns the hot ROB state for a live age.
func (s *Sim) hotOf(age uint64) *hotEntry { return &s.robHot[s.idxOf(age)] }

// memAt returns the slot's MemOp arena entry, or nil for a non-memory
// instruction (callers that pass the pointer on must preserve nil).
func (s *Sim) memAt(idx int) *lsq.MemOp {
	if s.robHot[idx].flags&fHasMem == 0 {
		return nil
	}
	return &s.memOps[idx]
}

// lookupProducer returns the age of the in-flight producer of a register
// at rename time, or 0 when the value is architectural.
func (s *Sim) lookupProducer(reg int16) uint64 {
	if reg == isa.RegNone {
		return 0
	}
	return s.regProducer[reg]
}

// srcReady reports whether the producer captured at rename time has
// completed, checking through the captured slot index: the producer is
// done when its slot was reused (it committed — a recycled age can never
// equal prodAge, because recycling starts above every surviving consumer's
// producer age) or when it sits completed in place. Callers pass the
// producer's hot entry; a negative slot index already means ready.
func srcReady(h *hotEntry, prodAge uint64) bool {
	return h.age != prodAge || h.state == stCompleted
}

// The pol* wrappers are the concrete fast path for the per-cycle and
// per-commit policy calls: they branch on the two hot implementations
// resolved at construction instead of dispatching through the interface,
// so the CAM no-ops and the DMDC counter ticks inline away.

func (s *Sim) polTick() {
	switch {
	case s.polCAM != nil: // Tick is a no-op
	case s.polDMDC != nil:
		s.polDMDC.Tick()
	default:
		s.pol.Tick()
	}
}

func (s *Sim) polInstCommit(age uint64) {
	switch {
	case s.polCAM != nil: // InstCommit is a no-op
	case s.polDMDC != nil:
		s.polDMDC.InstCommit(age)
	default:
		s.pol.InstCommit(age)
	}
}

func (s *Sim) polLoadCommit(op *lsq.MemOp) *lsq.Replay {
	switch {
	case s.polCAM != nil:
		return s.polCAM.LoadCommit(op)
	case s.polDMDC != nil:
		return s.polDMDC.LoadCommit(op)
	default:
		return s.pol.LoadCommit(op)
	}
}

func (s *Sim) polLoadDispatch(op *lsq.MemOp) {
	switch {
	case s.polCAM != nil:
		s.polCAM.LoadDispatch(op)
	case s.polDMDC != nil:
		s.polDMDC.LoadDispatch(op)
	default:
		s.pol.LoadDispatch(op)
	}
}

func (s *Sim) polLoadIssue(op *lsq.MemOp) {
	switch {
	case s.polCAM != nil:
		s.polCAM.LoadIssue(op)
	case s.polDMDC != nil:
		s.polDMDC.LoadIssue(op)
	default:
		s.pol.LoadIssue(op)
	}
}

func (s *Sim) polStoreResolve(op *lsq.MemOp) *lsq.Replay {
	switch {
	case s.polCAM != nil:
		return s.polCAM.StoreResolve(op)
	case s.polDMDC != nil:
		return s.polDMDC.StoreResolve(op)
	default:
		return s.pol.StoreResolve(op)
	}
}

// Result summarizes one run.
type Result struct {
	Benchmark string
	Class     trace.Class
	Config    string
	Policy    string
	Cycles    uint64
	Insts     uint64
	Energy    energy.Breakdown
	Stats     *stats.Set
}

// IPC returns committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s/%s: %d insts, %d cycles, IPC %.3f, energy %.0f",
		r.Benchmark, r.Config, r.Policy, r.Insts, r.Cycles, r.IPC(), r.Energy.Total())
}

// ctxCheckMask gates how often RunContext polls its context: every 4096
// cycles, the same order of cadence as the invariant sweeps. The hot loop
// pays one mask-and-test per cycle for cancellation; the channel poll
// itself runs only on the cadence (and only when the context can actually
// be canceled).
const ctxCheckMask = 1<<12 - 1

// Run simulates until nInsts correct-path instructions have committed and
// returns the collected results. It fails with a *soundness.SoundnessError
// when a soundness check (the oracle, the wrong-path-commit guard, a
// periodic invariant sweep) detects a divergence, and with a
// *soundness.WatchdogError when no instruction commits for the watchdog
// budget (default DefaultWatchdogBudget; see WithWatchdog) — the error
// carries a full pipeline-state dump instead of crashing the process.
func (s *Sim) Run(nInsts uint64) (*Result, error) {
	return s.RunContext(context.Background(), nInsts)
}

// RunContext is Run with cancellation: the context is polled on the
// periodic soundness cadence (every few thousand cycles, keeping the
// per-cycle loop clean), and a canceled or expired context stops the run
// with ctx.Err() — never a watchdog or soundness error, since an
// interrupted pipeline is not an unsound one. Any error — cancellation,
// soundness, watchdog — leaves the Sim mid-cycle, so it is poisoned:
// every later RunContext fails fast with a *PoisonedError wrapping the
// original failure. Incremental runs after a clean return remain fine.
func (s *Sim) RunContext(ctx context.Context, nInsts uint64) (*Result, error) {
	if s.poisoned != nil {
		return nil, &PoisonedError{Cause: s.poisoned}
	}
	if s.arena != nil {
		// Queue appends may regrow their backing arrays; hand the grown
		// headers back so the arena's next run reuses them. Deferred so
		// error paths reclaim too.
		defer s.arena.reclaim(s)
	}
	if s.stream != nil && nInsts > 0 {
		// The run draws at most FetchAhead past its budget
		// (TestFetchAheadBounds), so the producer records no further.
		// It is stopped and joined on every exit, a panic included, so
		// no goroutine outlives the call.
		s.stream.start(nInsts + uint64(FetchAhead(s.cfg)))
		defer s.stream.producer.join()
	}
	res, err := s.runLoop(ctx, nInsts)
	if err != nil {
		s.poisoned = err
	}
	return res, err
}

// PoisonedError reports an attempt to reuse a Sim whose previous run
// ended in an error; Cause is that original error.
type PoisonedError struct {
	Cause error
}

func (e *PoisonedError) Error() string {
	return "core: sim reused after a failed run: " + e.Cause.Error()
}

func (e *PoisonedError) Unwrap() error { return e.Cause }

func (s *Sim) runLoop(ctx context.Context, nInsts uint64) (*Result, error) {
	done := ctx.Done() // nil when the context can never be canceled
	target := s.committed + nInsts
	for s.committed < target {
		s.step()
		if s.simErr != nil {
			return nil, s.simErr
		}
		if done != nil && s.cycle&ctxCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		if s.invariantEvery > 0 && s.cycle%s.invariantEvery == 0 {
			if err := s.CheckInvariants(); err != nil {
				return nil, &soundness.SoundnessError{
					Kind:   soundness.KindInvariant,
					Cycle:  s.cycle,
					Commit: s.committed,
					Got:    err.Error(),
					Want:   "pipeline invariants hold",
					Events: s.ring.Snapshot(),
				}
			}
		}
		if s.cycle-s.lastCommitCycle > s.watchdogBudget {
			return nil, &soundness.WatchdogError{
				Budget: s.watchdogBudget,
				Cycle:  s.cycle,
				Dump:   s.stateDump(),
			}
		}
	}
	return s.result(), nil
}

// MustRun is Run for static setups (tests, examples): it panics on error.
func (s *Sim) MustRun(nInsts uint64) *Result {
	r, err := s.Run(nInsts)
	if err != nil {
		panic(err)
	}
	return r
}

// step advances one cycle through all pipeline stages.
func (s *Sim) step() {
	if s.ptrace != nil {
		s.ptrace.tick(s.committed)
	}
	commit0 := s.committed
	s.commitStage()
	s.completeStage()
	s.issueStage()
	s.dispatchStage()
	s.fetchStage()
	s.injectInvalidations()
	s.injectFaultBursts()
	s.polTick()
	s.em.Tick()
	if s.tel != nil {
		s.telemetryCycle(s.committed - commit0)
	}
	s.cycle++
}

// injectInvalidations delivers external coherence invalidations at the
// configured rate. Following the paper's methodology (Section 6.2.4), the
// injection exercises only the dependence-checking machinery: the cache
// contents are left alone so the measured overhead isolates the checking
// windows, INV-bit replays, and extra YLA traffic rather than memory-
// system thrash that would equally affect any design.
func (s *Sim) injectInvalidations() {
	if s.invRate <= 0 || s.invRng.Float64() >= s.invRate {
		return
	}
	meta := s.wl.Meta()
	if meta.InvBytes == 0 {
		return
	}
	lineB := uint64(s.cfg.Memory.L1D.LineB)
	addr := meta.InvBase + uint64(s.invRng.Int63n(int64(meta.InvBytes)))&^(lineB-1)
	s.pol.Invalidate(addr)
	s.invInjected++
}

// result snapshots all statistics.
func (s *Sim) result() *Result {
	if s.tel != nil {
		// Final flush so the time series always ends at the run boundary
		// even when the run length is not a stride multiple. Telemetry
		// counters deliberately stay out of the Result stats: the golden
		// fingerprints must be identical with and without a sampler.
		s.recordTelemetrySample()
	}
	set := stats.NewSet()
	set.Put("cycles", float64(s.cycle))
	set.Put("committed", float64(s.committed))
	set.Put("mispredict_recoveries", float64(s.mispredictRecoveries))
	set.Put("bpred_lookups", float64(s.bp.Lookups))
	set.Put("bpred_mispredicts", float64(s.bp.Mispredicts))
	set.Put("load_rejections", float64(s.loadRejections))
	set.Put("sq_searches", float64(s.sqSearches))
	set.Put("sq_searches_filtered", float64(s.sqSearchFiltered))
	set.Put("forwards", float64(s.forwards))
	set.Put("wrong_path_fetched", float64(s.wrongPathFetched))
	set.Put("inv_injected", float64(s.invInjected))
	if !s.faults.Zero() {
		set.Put("faults_injected", float64(s.faultsInjected))
	}
	if s.oracle != nil {
		insts, loads := s.oracle.Checked()
		set.Put("oracle_checked_insts", float64(insts))
		set.Put("oracle_checked_loads", float64(loads))
	}
	set.Put("l1d_accesses", float64(s.mem.L1D.Accesses))
	set.Put("l1d_misses", float64(s.mem.L1D.Misses))
	set.Put("l1i_accesses", float64(s.mem.L1I.Accesses))
	set.Put("l1i_misses", float64(s.mem.L1I.Misses))
	set.Put("l2_accesses", float64(s.mem.L2.Accesses))
	set.Put("l2_misses", float64(s.mem.L2.Misses))
	s.replayCounts.Report(set, "core_replay_", "core_replays_total")
	if s.replaysWrongPath > 0 {
		set.Put("core_replays_wrongpath", float64(s.replaysWrongPath))
	}
	s.pol.Report(set)
	for _, m := range s.monitors {
		m.Report(set)
	}
	set.Merge(s.cstats)
	meta := s.wl.Meta()
	return &Result{
		Benchmark: meta.Name,
		Class:     meta.Class,
		Config:    s.cfg.Name,
		Policy:    s.pol.Name(),
		Cycles:    s.cycle,
		Insts:     s.committed,
		Energy:    s.em.Snapshot(),
		Stats:     set,
	}
}
