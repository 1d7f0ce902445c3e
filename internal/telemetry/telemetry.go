// Package telemetry is the simulator's observability layer: a low-overhead
// sampling engine that records interval time series of pipeline state (IPC,
// structure occupancies, replay rates per cause, filter hit rates,
// checking-table occupancy) plus a commit-stall taxonomy, into preallocated
// ring buffers, with exporters for CSV, JSON, and Chrome trace_event files
// (chrome://tracing), and a concurrency-safe Registry that a live HTTP
// endpoint can observe while a matrix run is in flight.
//
// The contract with internal/core is strictly observational: a Sampler only
// ever *reads* pipeline state, so attaching one must never change a single
// committed cycle. The golden observer-effect suite in golden_test.go pins
// that property; the disabled case costs the core one nil pointer test per
// cycle and is pinned by the golden matrix plus BenchmarkSimBaseline.
package telemetry

import (
	"sync"

	"dmdc/internal/lsq"
)

// StallCause classifies one zero-commit cycle: when the commit stage
// retires nothing, the cycle is attributed to the reason the ROB head (or
// the front end) could not deliver. The taxonomy follows the questions the
// paper's evaluation asks: is time lost to memory (head load miss), to
// store address resolution, to dependence-checking replays, or to the
// front end refilling after a squash?
type StallCause uint8

// Stall buckets. Every zero-commit cycle lands in exactly one.
const (
	// StallLoadMiss: the ROB head is a load whose memory access (or
	// address generation) has not completed — the classic ROB-head load
	// miss.
	StallLoadMiss StallCause = iota
	// StallStoreUnresolved: the ROB head is a store that has not
	// completed — its address is unresolved or its data operand pending.
	StallStoreUnresolved
	// StallReplaySquash: a memory-order replay is being recovered — the
	// window from the replay trigger until the replayed instruction
	// commits again (squash, penalty, refetch, re-execution).
	StallReplaySquash
	// StallFetchStarve: the ROB is empty — the front end is starving
	// commit (I-cache miss, branch-recovery redirect, fetch stall).
	StallFetchStarve
	// StallExec: the ROB head is a non-memory instruction still waiting
	// or executing (long-latency ALU chain, operand dependence).
	StallExec
	numStallCauses
)

// NumStallCauses is the number of stall buckets.
const NumStallCauses = int(numStallCauses)

var stallNames = [...]string{
	StallLoadMiss:        "load_miss",
	StallStoreUnresolved: "store_unresolved",
	StallReplaySquash:    "replay_squash",
	StallFetchStarve:     "fetch_starve",
	StallExec:            "exec",
}

// String names the bucket.
func (c StallCause) String() string {
	if int(c) < len(stallNames) {
		return stallNames[c]
	}
	return "unknown"
}

// StatName returns the bucket's exported counter name (core_stall_*).
func (c StallCause) StatName() string { return "core_stall_" + c.String() }

// StallCounts is the per-bucket stall-cycle tally. The core updates a
// plain array (no lock) and the sampler copies it into each sample, so
// attribution costs one array index per stalled cycle.
type StallCounts [NumStallCauses]uint64

// Total sums all buckets.
func (sc StallCounts) Total() uint64 {
	var t uint64
	for _, v := range sc {
		t += v
	}
	return t
}

// DispatchHazard classifies one dispatch-stage stall: the structural
// resource whose exhaustion blocked rename this cycle (checked in the
// dispatch stage's own gating order).
type DispatchHazard uint8

// Dispatch hazard buckets.
const (
	HazROBFull DispatchHazard = iota
	HazIQFull
	HazRegsFull
	HazLQFull
	HazSQFull
	numDispatchHazards
)

// NumDispatchHazards is the number of dispatch hazard buckets.
const NumDispatchHazards = int(numDispatchHazards)

var hazardNames = [...]string{
	HazROBFull:  "rob_full",
	HazIQFull:   "iq_full",
	HazRegsFull: "regs_full",
	HazLQFull:   "lq_full",
	HazSQFull:   "sq_full",
}

// String names the hazard.
func (h DispatchHazard) String() string {
	if int(h) < len(hazardNames) {
		return hazardNames[h]
	}
	return "unknown"
}

// StatName returns the hazard's exported counter name.
func (h DispatchHazard) StatName() string { return "core_dispatch_stall_" + h.String() }

// DispatchCounts is the per-hazard dispatch-stall tally.
type DispatchCounts [NumDispatchHazards]uint64

// Total sums all hazards.
func (dc DispatchCounts) Total() uint64 {
	var t uint64
	for _, v := range dc {
		t += v
	}
	return t
}

// Config parameterizes a Sampler.
type Config struct {
	// Stride is the sampling interval in cycles; 0 means DefaultStride.
	Stride uint64
	// Cap bounds the retained samples; once full the ring overwrites the
	// oldest (Snapshot reports how many were dropped). 0 means DefaultCap.
	Cap int
}

// Defaults: at 1024 cycles per sample and 4096 retained samples, a run of
// four million cycles fits entirely; longer runs keep the most recent
// window, which is what a live endpoint or a post-mortem wants.
const (
	DefaultStride = 1024
	DefaultCap    = 4096
)

// normalized fills defaults.
func (c Config) normalized() Config {
	if c.Stride == 0 {
		c.Stride = DefaultStride
	}
	if c.Cap <= 0 {
		c.Cap = DefaultCap
	}
	return c
}

// Meta identifies the run a Sampler observes; the core fills it at
// simulator construction.
type Meta struct {
	Benchmark string `json:"benchmark"`
	Config    string `json:"config"`
	Policy    string `json:"policy"`
}

// Sample is one point of the interval time series. Counter fields
// (Committed, Fetched, Issued, Replays, Stalls, FilterHits/Lookups) are
// cumulative — consumers difference adjacent samples for interval rates —
// while occupancy fields are instantaneous gauges.
type Sample struct {
	Cycle     uint64 `json:"cycle"`
	Committed uint64 `json:"committed"`
	Fetched   uint64 `json:"fetched"`
	Issued    uint64 `json:"issued"`

	// Occupancy gauges at the sample instant.
	ROB           int `json:"rob"`
	IQ            int `json:"iq"`
	SQ            int `json:"sq"`
	InflightLoads int `json:"inflight_loads"`

	// Replay counters by cause (cumulative, indexed by lsq.Cause).
	Replays [lsq.NumCauses]uint64 `json:"replays"`

	// Commit-stall attribution (cumulative).
	Stalls StallCounts `json:"stalls"`

	// Dispatch-stage structural hazard attribution (cumulative).
	DispatchStalls DispatchCounts `json:"dispatch_stalls"`

	// Policy-side probes (zero when the policy exposes none).
	CheckOcc      int    `json:"check_occ"` // checking table dirty entries / queue / LQ occupancy
	Checking      bool   `json:"checking"`  // DMDC checking mode active
	FilterHits    uint64 `json:"filter_hits"`
	FilterLookups uint64 `json:"filter_lookups"`
}

// Sampler records samples into a preallocated ring buffer. One simulator
// goroutine calls Record; any number of goroutines may call Snapshot
// concurrently (the live endpoint does), so both take a mutex — paid once
// per stride, never per cycle.
type Sampler struct {
	cfg Config

	mu    sync.Mutex
	meta  Meta
	buf   []Sample
	head  int    // index of the oldest retained sample
	n     int    // retained samples
	total uint64 // samples ever recorded (>= n once the ring wraps)
}

// New builds a sampler; zero config fields take defaults.
func New(cfg Config) *Sampler {
	cfg = cfg.normalized()
	return &Sampler{cfg: cfg, buf: make([]Sample, cfg.Cap)}
}

// Stride returns the sampling interval in cycles.
func (t *Sampler) Stride() uint64 { return t.cfg.Stride }

// SetMeta records the run identity (called by the core at construction).
func (t *Sampler) SetMeta(m Meta) {
	t.mu.Lock()
	t.meta = m
	t.mu.Unlock()
}

// Record appends one sample, overwriting the oldest when the ring is full.
func (t *Sampler) Record(s Sample) {
	t.mu.Lock()
	if t.n < len(t.buf) {
		t.buf[(t.head+t.n)%len(t.buf)] = s
		t.n++
	} else {
		t.buf[t.head] = s
		t.head = (t.head + 1) % len(t.buf)
	}
	t.total++
	t.mu.Unlock()
}

// Snapshot is a consistent copy of a sampler's state: the retained samples
// in chronological order plus identity and loss accounting.
type Snapshot struct {
	Meta    Meta     `json:"meta"`
	Stride  uint64   `json:"stride"`
	Total   uint64   `json:"total_samples"`
	Dropped uint64   `json:"dropped_samples"`
	Samples []Sample `json:"samples"`
}

// Snapshot copies the retained samples. Safe to call concurrently with
// Record; the copy is consistent (taken under the sampler lock).
func (t *Sampler) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := Snapshot{
		Meta:    t.meta,
		Stride:  t.cfg.Stride,
		Total:   t.total,
		Dropped: t.total - uint64(t.n),
		Samples: make([]Sample, t.n),
	}
	for i := 0; i < t.n; i++ {
		out.Samples[i] = t.buf[(t.head+i)%len(t.buf)]
	}
	return out
}

// Last returns the most recent sample, if any.
func (sn Snapshot) Last() (Sample, bool) {
	if len(sn.Samples) == 0 {
		return Sample{}, false
	}
	return sn.Samples[len(sn.Samples)-1], true
}

// IPC returns overall committed instructions per cycle up to the last
// sample, or zero when empty.
func (sn Snapshot) IPC() float64 {
	last, ok := sn.Last()
	if !ok || last.Cycle == 0 {
		return 0
	}
	return float64(last.Committed) / float64(last.Cycle)
}

// StallBreakdown returns the final cumulative stall tally and the fraction
// of all cycles attributed to each bucket.
func (sn Snapshot) StallBreakdown() (StallCounts, [NumStallCauses]float64) {
	var frac [NumStallCauses]float64
	last, ok := sn.Last()
	if !ok || last.Cycle == 0 {
		return StallCounts{}, frac
	}
	for i, v := range last.Stalls {
		frac[i] = float64(v) / float64(last.Cycle)
	}
	return last.Stalls, frac
}
