// Package dmdc is a cycle-level reproduction of "DMDC: Delayed Memory
// Dependence Checking through Age-Based Filtering" (Castro, Piñuel,
// Chaver, Prieto, Huang, Tirado — MICRO 2006).
//
// The package front door wraps the building blocks in internal/: a
// trace-driven out-of-order pipeline (internal/core), synthetic SPEC
// CPU2000-like workloads (internal/trace), the load-queue management
// policies under study (internal/lsq), the machine configurations of the
// paper's Table 1 (internal/config), and the experiment harness that
// regenerates every table and figure (internal/experiments).
//
// Quick use:
//
//	r, err := dmdc.Run(ctx, dmdc.Request{
//		Machine:   dmdc.Config2(),
//		Benchmark: "gcc",
//		Policy:    dmdc.PolicyDMDC,
//		Insts:     1_000_000,
//	})
//	fmt.Println(r.IPC(), r.Energy.LQEnergy())
//
// or regenerate the paper's evaluation:
//
//	suite, err := dmdc.NewSuite(dmdc.SuiteOptions{Insts: 1_000_000})
//	fmt.Println(suite.Report())
package dmdc

import (
	"context"
	"fmt"
	"strings"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/experiments"
	"dmdc/internal/soundness"
	"dmdc/internal/telemetry"
	"dmdc/internal/trace"
)

// Machine is a processor configuration (see Config1/Config2/Config3).
type Machine = config.Machine

// Result is the outcome of one simulation.
type Result = core.Result

// Suite regenerates the paper's evaluation artifacts.
type Suite = experiments.Suite

// SuiteOptions scope a Suite run.
type SuiteOptions = experiments.Options

// Config1 returns the paper's smallest machine (ROB 128, LQ/SQ 48/32).
func Config1() Machine { return config.Config1() }

// Config2 returns the paper's primary machine (ROB 256, LQ/SQ 96/48).
func Config2() Machine { return config.Config2() }

// Config3 returns the paper's largest machine (ROB 512, LQ/SQ 192/64).
func Config3() Machine { return config.Config3() }

// ConfigIQPressure returns the off-paper scheduler stress machine: issue
// queues far smaller than the ROB behind a tiny, slow L1D, so issue
// wakeup runs IQ-full with long-latency loads. It exists for the golden
// matrix, which pins the issue scheduler under that pressure, rather than
// the paper's evaluation.
func ConfigIQPressure() Machine { return config.IQPressure() }

// Benchmarks lists the 26 synthetic SPEC CPU2000 stand-ins.
func Benchmarks() []string { return trace.Names() }

// PolicyKind selects a load-queue management scheme.
type PolicyKind int

// Available policies.
const (
	// PolicyBaseline is the conventional fully associative load queue.
	PolicyBaseline PolicyKind = iota
	// PolicyYLA adds 8-register age-based filtering to the baseline.
	PolicyYLA
	// PolicyDMDC is the paper's design: no associative LQ, delayed
	// checking through a hash table at commit (global windows).
	PolicyDMDC
	// PolicyDMDCLocal is the local-window variant.
	PolicyDMDCLocal
	// PolicyAgeTable is the related-work age-indexed hash table of Garg
	// et al. (ISLPED 2006) that the paper's Section 7 compares against.
	PolicyAgeTable
	// PolicyValueBased is Cain & Lipasti's commit-time re-execution
	// (ISCA 2004): exact, but every load re-accesses the cache.
	PolicyValueBased
	// PolicyValueSVW adds Roth's store-vulnerability-window filter
	// (ISCA 2005) in front of the re-execution.
	PolicyValueSVW
)

// policyNames pairs each PolicyKind with its canonical name; String and
// ParsePolicy are both driven by this table, which is what guarantees the
// round trip ParsePolicy(k.String()) == k for every declared policy.
var policyNames = [...]string{
	PolicyBaseline:   "baseline",
	PolicyYLA:        "yla",
	PolicyDMDC:       "dmdc",
	PolicyDMDCLocal:  "dmdc-local",
	PolicyAgeTable:   "agetable",
	PolicyValueBased: "value-based",
	PolicyValueSVW:   "value-svw",
}

// policyAliases maps accepted alternate spellings (the historic dmdcsim
// flag values) onto policies; canonical names are in policyNames.
var policyAliases = map[string]PolicyKind{
	"cam":   PolicyBaseline,
	"value": PolicyValueBased,
}

// ParsePolicy maps a policy name to its PolicyKind. It accepts the
// canonical names produced by PolicyKind.String (round-tripping every
// declared policy) plus the historic aliases "cam" (baseline) and "value"
// (value-based). Unknown names error with the valid set.
func ParsePolicy(s string) (PolicyKind, error) {
	for k, name := range policyNames {
		if s == name {
			return PolicyKind(k), nil
		}
	}
	if k, ok := policyAliases[s]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("dmdc: unknown policy %q (valid: %s)",
		s, strings.Join(policyNames[:], ", "))
}

// MarshalText encodes the policy as its canonical name, making PolicyKind
// usable directly in JSON encodings (see Request).
func (p PolicyKind) MarshalText() ([]byte, error) {
	if int(p) < 0 || int(p) >= len(policyNames) {
		return nil, fmt.Errorf("dmdc: cannot marshal unknown policy %d", int(p))
	}
	return []byte(policyNames[p]), nil
}

// UnmarshalText decodes a policy name via ParsePolicy.
func (p *PolicyKind) UnmarshalText(b []byte) error {
	k, err := ParsePolicy(string(b))
	if err != nil {
		return err
	}
	*p = k
	return nil
}

// String names the policy.
func (p PolicyKind) String() string {
	if int(p) >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// FaultSpec describes a deterministic microarchitectural fault-injection
// campaign (see Request.Faults and ParseFaultSpec).
type FaultSpec = soundness.FaultSpec

// SoundnessError reports the first architectural divergence caught by the
// lockstep oracle (see Request.Verify).
type SoundnessError = soundness.SoundnessError

// WatchdogError reports a forward-progress stall, with a pipeline state
// dump (see Request.WatchdogCycles).
type WatchdogError = soundness.WatchdogError

// ParseFaultSpec parses the command-line fault-campaign syntax, e.g.
// "invburst=8@50,storedelay=40@7,alias=4096,spurious=97".
func ParseFaultSpec(s string) (FaultSpec, error) { return soundness.ParseFaultSpec(s) }

// TelemetryConfig parameterizes a telemetry sampler (cycle stride, ring
// capacity; zero fields take defaults).
type TelemetryConfig = telemetry.Config

// TelemetrySampler records interval time series of pipeline state (IPC,
// occupancies, replay rates, stall attribution, checking-table probes)
// into a preallocated ring buffer; see NewTelemetrySampler and
// Request.Telemetry.
type TelemetrySampler = telemetry.Sampler

// TelemetrySnapshot is a consistent copy of a sampler's series with CSV,
// JSON, and Chrome trace_event exporters.
type TelemetrySnapshot = telemetry.Snapshot

// NewTelemetrySampler builds a sampling engine to set as
// Request.Telemetry. After the run, Snapshot() returns the time series;
// its WriteCSV, WriteJSON, and WriteChromeTrace methods export it.
func NewTelemetrySampler(cfg TelemetryConfig) *TelemetrySampler { return telemetry.New(cfg) }

// Request describes one simulation: which benchmark runs on which machine
// under which load-queue policy, for how long, with which verification and
// injection settings. It is the single entry-point contract: Run
// executes it in this process. It carries JSON tags (Policy marshals as
// its canonical name), but a dmdcd simulation server does not accept it;
// dmdcd jobs are the experiment harness's own job form.
//
// The zero value of every optional field means "off"; a zero Machine
// defaults to Config2 and zero Insts to 1,000,000, so the minimal request
// is just a Benchmark (and usually a Policy).
type Request struct {
	// Machine is the processor configuration; the zero value means
	// Config2, the paper's primary machine.
	Machine Machine `json:"machine"`
	// Benchmark names the workload (see Benchmarks). Required.
	Benchmark string `json:"benchmark"`
	// Policy selects the load-queue management scheme (zero value:
	// PolicyBaseline).
	Policy PolicyKind `json:"policy"`
	// Insts is the committed-instruction budget; 0 means 1,000,000.
	Insts uint64 `json:"insts"`
	// Verify attaches the lockstep architectural oracle: every commit is
	// checked against an independent in-order model and the run fails with
	// a *SoundnessError at the first divergence.
	Verify bool `json:"verify,omitempty"`
	// Invalidations injects external invalidations at this rate per 1000
	// cycles (the paper's Table 6 methodology); 0 disables.
	Invalidations float64 `json:"invalidations,omitempty"`
	// SQFilter enables the Section 3 store-side age filter.
	SQFilter bool `json:"sq_filter,omitempty"`
	// Faults describes a deterministic fault-injection campaign (zero
	// value: no faults; see ParseFaultSpec for the string syntax).
	Faults FaultSpec `json:"faults"`
	// WatchdogCycles overrides the forward-progress budget (0 keeps the
	// core default).
	WatchdogCycles uint64 `json:"watchdog_cycles,omitempty"`
	// InvariantEvery sweeps the pipeline's structural invariants every
	// this many cycles (0 disables the periodic sweep).
	InvariantEvery uint64 `json:"invariant_every,omitempty"`
	// Telemetry attaches a sampling engine (see NewTelemetrySampler).
	// Telemetry is strictly observational — an instrumented run commits
	// cycle-for-cycle identically to an uninstrumented one (pinned by the
	// golden observer-effect suite). It lives in this process, so it is
	// not part of the JSON encoding.
	Telemetry *TelemetrySampler `json:"-"`
}

// normalized fills the documented defaults.
func (r Request) normalized() (Request, error) {
	if r.Machine.Name == "" {
		r.Machine = Config2()
	}
	if r.Insts == 0 {
		r.Insts = 1_000_000
	}
	if r.Benchmark == "" {
		return r, fmt.Errorf("dmdc: request has no benchmark (valid: %s)",
			strings.Join(Benchmarks(), ", "))
	}
	return r, nil
}

// Run executes one simulation Request and returns timing, energy, and
// statistics. The context is checked on the periodic soundness cadence: a
// mid-run cancellation stops the simulation promptly and returns ctx.Err()
// (never a watchdog or soundness error). Run is the library's single
// entry point for one simulation.
func Run(ctx context.Context, req Request) (*Result, error) {
	req, err := req.normalized()
	if err != nil {
		return nil, err
	}
	factory, err := experiments.PolicyFactoryByName(req.Policy.String())
	if err != nil {
		return nil, fmt.Errorf("dmdc: unknown policy %v", req.Policy)
	}
	var opts []core.Option
	if req.Invalidations > 0 {
		opts = append(opts, core.WithInvalidations(req.Invalidations))
	}
	if req.SQFilter {
		opts = append(opts, core.WithSQFilter())
	}
	if !req.Faults.Zero() {
		opts = append(opts, core.WithFaults(req.Faults))
	}
	if req.WatchdogCycles > 0 {
		opts = append(opts, core.WithWatchdog(req.WatchdogCycles))
	}
	if req.InvariantEvery > 0 {
		opts = append(opts, core.WithInvariantChecking(req.InvariantEvery))
	}
	if req.Telemetry != nil {
		opts = append(opts, core.WithTelemetry(req.Telemetry))
	}
	// Each run draws its per-run storage and tables from the process-wide
	// arena pool: reset, not freed, between runs, so back-to-back
	// simulations skip the per-run allocation.
	arena := core.PooledArena()
	defer arena.Release()
	sim, err := experiments.NewCell(req.Machine, req.Benchmark, factory, req.Verify, arena, opts...)
	if err != nil {
		return nil, err
	}
	return sim.RunContext(ctx, req.Insts)
}

// NewSuite builds the experiment suite that regenerates the paper's
// tables and figures. It returns an error when the options name an
// unknown benchmark or the result cache directory cannot be opened.
func NewSuite(o SuiteOptions) (*Suite, error) { return experiments.NewSuite(o) }
