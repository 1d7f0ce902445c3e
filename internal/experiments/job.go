package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/energy"
	"dmdc/internal/resultcache"
	"dmdc/internal/soundness"
	"dmdc/internal/telemetry"
	"dmdc/internal/trace"
)

// JobSpec is the wire form of one simulation cell: everything a backend
// needs to reproduce the run, and nothing more. Exactly one of RunKey and
// Policy names the load-queue management scheme:
//
//   - RunKey addresses a named experiment spec ("dmdc-global-config2",
//     "monitored-baseline", "dmdc-table4096", ...). The key names code —
//     the policy factory, monitor set, and injection options are looked
//     up on the executing side in the run-spec table (resolveSpec), and
//     the machine configuration is pinned by the key itself.
//   - Policy is a canonical policy name (see PolicyNames) applied to the
//     Machine field.
//
// The struct is the JSON schema of the dmdcd job API; simulation is
// deterministic, so a JobSpec fully determines its Result and the spec
// doubles as cache-key material (see CacheKey).
type JobSpec struct {
	// Machine is the full machine configuration. For RunKey jobs it is
	// informational (the key pins the machine); for Policy jobs it is the
	// machine simulated.
	Machine config.Machine `json:"machine"`
	// RunKey names an experiment run spec; empty for Policy jobs.
	RunKey string `json:"run_key,omitempty"`
	// Policy is a canonical policy name; empty for RunKey jobs.
	Policy string `json:"policy,omitempty"`
	// Benchmark is the workload name.
	Benchmark string `json:"benchmark"`
	// Insts is the committed-instruction budget.
	Insts uint64 `json:"insts"`
	// Soundness attaches the lockstep architectural oracle. Soundness jobs
	// must never be served from a result cache — a cached result would skip
	// exactly the verification being asked for.
	Soundness bool `json:"soundness,omitempty"`
	// Faults is the canonical fault-campaign string
	// (soundness.FaultSpec.String()), empty for clean runs.
	Faults string `json:"faults,omitempty"`
	// WatchdogCycles overrides the forward-progress budget (0 = default).
	WatchdogCycles uint64 `json:"watchdog_cycles,omitempty"`
	// Checkpoint is a serialized simulator state (internal/checkpoint
	// record) to restore before running; Insts then counts instructions
	// committed after the restore point. Checkpoint jobs are the unit of
	// sampled-mode interval sharding. JSON carries it base64-encoded.
	Checkpoint []byte `json:"checkpoint,omitempty"`
	// CheckpointRef is the hex SHA-256 of Checkpoint: the interval's
	// content address. The executing side re-hashes the payload and
	// refuses a mismatch, so a corrupted or swapped blob can never be
	// silently simulated.
	CheckpointRef string `json:"checkpoint_ref,omitempty"`
}

// Validate reports the first problem with the spec, or nil.
func (j JobSpec) Validate() error {
	if (j.RunKey == "") == (j.Policy == "") {
		return fmt.Errorf("experiments: job needs exactly one of run_key and policy (have %q and %q)",
			j.RunKey, j.Policy)
	}
	sp, err := specForJob(j)
	if err != nil {
		return err
	}
	if j.RunKey != "" {
		if j.Machine.Name != "" && j.Machine.Name != sp.machine.Name {
			return fmt.Errorf("experiments: run key %q pins machine %s, job says %s",
				j.RunKey, sp.machine.Name, j.Machine.Name)
		}
	} else if err := j.Machine.Validate(); err != nil {
		return fmt.Errorf("experiments: job machine: %w", err)
	}
	if j.Benchmark == "" {
		return fmt.Errorf("experiments: job has no benchmark")
	}
	if _, err := trace.ByName(j.Benchmark); err != nil {
		return err
	}
	if j.Insts == 0 {
		return fmt.Errorf("experiments: job has no instruction budget")
	}
	if j.Faults != "" {
		if _, err := soundness.ParseFaultSpec(j.Faults); err != nil {
			return err
		}
	}
	if (len(j.Checkpoint) == 0) != (j.CheckpointRef == "") {
		return fmt.Errorf("experiments: checkpoint payload and checkpoint_ref must be set together")
	}
	if len(j.Checkpoint) > 0 {
		// Checkpoint jobs restore exact simulator state; every option that
		// the checkpoint format refuses to capture is refused here too.
		if j.Policy == "" {
			return fmt.Errorf("experiments: checkpoint jobs must name a policy, not a run key")
		}
		if j.Soundness {
			return fmt.Errorf("experiments: checkpoint jobs cannot attach the soundness oracle")
		}
		if j.Faults != "" {
			return fmt.Errorf("experiments: checkpoint jobs cannot inject faults")
		}
		if j.WatchdogCycles > 0 {
			// The watchdog's failure dump needs the event ring, which the
			// checkpoint format does not capture either.
			return fmt.Errorf("experiments: checkpoint jobs cannot override the watchdog")
		}
	}
	return nil
}

// CacheKey returns the job's content address in the persistent result
// cache. It is the only cache-key layout: a Suite keys its in-process
// cells by it too, so results computed locally, remotely, or in a previous
// process are interchangeable. It doubles as the job's idempotency key on
// the wire: resubmitting an identical spec addresses the same job. An
// invalid spec still gets a key, the ID its rejection is reported under.
func (j JobSpec) CacheKey() string {
	sp, _ := specForJob(j)
	return resultcache.Key(resultcache.KeySpec{
		Machine:       sp.machine,
		RunKey:        sp.key,
		Benchmark:     j.Benchmark,
		Insts:         j.Insts,
		Faults:        j.Faults,
		CheckpointRef: j.CheckpointRef,
	})
}

// Cacheable reports whether the job's result may be read from or written
// to a result cache. A lockstep-oracle job never is: a cached result would
// skip exactly the verification the job asks for.
func (j JobSpec) Cacheable() bool { return !j.Soundness }

// Backend executes simulation jobs for a Suite: in process (the default),
// or sharded across remote dmdcd servers (internal/dserve.Dispatcher).
// Implementations must be safe for concurrent use — the matrix runner
// calls Run from every worker.
type Backend interface {
	// Name identifies the backend in errors and logs.
	Name() string
	// Run executes one job to completion and returns its result. Results
	// must be byte-identical to an in-process run of the same spec
	// (deterministic simulation makes this a hard contract, not a hope).
	// Run must return promptly once ctx is cancelled: callers wait for it.
	Run(ctx context.Context, spec JobSpec) (*core.Result, error)
}

// policies is the one name→construction table: the dmdc facade, the
// CLIs, and the dmdcd server all resolve policy names here, in this order.
var policies = []struct {
	name    string
	factory PolicyFactory
}{
	{"baseline", BaselineFactory},
	{"yla", YLAFactory},
	{"dmdc", DMDCGlobalFactory},
	{"dmdc-local", DMDCLocalFactory},
	{"agetable", AgeTableFactory},
	{"value-based", ValueBasedFactory},
	{"value-svw", ValueSVWFactory},
}

// PolicyNames lists the canonical policy names accepted by
// PolicyFactoryByName, in declaration order. The names round-trip through
// dmdc.PolicyKind.String / dmdc.ParsePolicy.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}

// PolicyFactoryByName maps a canonical policy name to its factory.
func PolicyFactoryByName(name string) (PolicyFactory, error) {
	for _, p := range policies {
		if p.name == name {
			return p.factory, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown policy %q (valid: %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// specForJob resolves the run spec a JobSpec describes: its run key's
// entry in the run-spec table, or its policy's factory on its machine
// under the reserved "policy:" key (":" cannot occur in a run key, so the
// two namespaces never collide). On an unknown run key or policy it
// returns the error together with a spec that still carries the job's key
// and machine, which is all CacheKey reads.
func specForJob(j JobSpec) (runSpec, error) {
	if j.RunKey != "" {
		if sp, ok := resolveSpec(j.RunKey); ok {
			return sp, nil
		}
		return runSpec{key: j.RunKey, machine: j.Machine},
			fmt.Errorf("experiments: unknown run key %q", j.RunKey)
	}
	f, err := PolicyFactoryByName(j.Policy)
	return runSpec{key: "policy:" + j.Policy, machine: j.Machine, factory: f}, err
}

// NewCell builds one simulation of bench on machine m: the benchmark's
// profile, an energy model sized for the machine, the policy factory's
// policy wired to that model, and the Sim. oracle attaches the lockstep
// architectural oracle, fed by a second generator built from the same
// profile; opts are the further core options (injection, monitors,
// soundness checks, telemetry). Every run passes an arena from the
// process-wide pool and releases it once the Sim will not step again; a
// nil arena gives the Sim a fresh one of its own.
//
// It is the only place a cell is built — dmdc.Run, the matrix runner and
// dmdcd jobs (executeCell), restored checkpoint intervals
// (executeRestored) and the sampled-mode functional pass all call it — so
// a job shipped over the wire is constructed exactly like a local run,
// which is what makes distributed results byte-identical to local ones.
func NewCell(m config.Machine, bench string, factory PolicyFactory, oracle bool, arena *core.Arena, opts ...core.Option) (*core.Sim, error) {
	prof, err := trace.ByName(bench)
	if err != nil {
		return nil, err
	}
	em := energy.NewModel(m.CoreSize())
	pol, err := factory(m, em)
	if err != nil {
		return nil, err
	}
	// Capped at its length, so the appends below copy rather than write
	// into the caller's backing array.
	opts = opts[:len(opts):len(opts)]
	if oracle {
		opts = append(opts, core.WithOracle(core.FromGenerator(trace.NewGenerator(prof))))
	}
	return core.New(m, prof, pol, em, append(opts, core.WithArena(arena))...)
}

// executeCell builds and runs the cell j describes, sp being its resolved
// run spec: the spec's own options, then the job's verification, injection
// and watchdog settings, and the sampler and the benchmark's recorded
// committed path when given (a nil tape generates the path live).
func executeCell(ctx context.Context, sp *runSpec, j JobSpec, sampler *telemetry.Sampler, tape *trace.Tape) (*core.Result, error) {
	opts := append([]core.Option{}, sp.opts...)
	if sp.monitors != nil {
		opts = append(opts, core.WithMonitors(sp.monitors()...))
	}
	if j.Faults != "" {
		faults, err := soundness.ParseFaultSpec(j.Faults)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithFaults(faults))
	}
	if j.WatchdogCycles > 0 {
		opts = append(opts, core.WithWatchdog(j.WatchdogCycles))
	}
	if sampler != nil {
		opts = append(opts, core.WithTelemetry(sampler))
	}
	if tape != nil {
		opts = append(opts, core.WithTape(tape))
	}
	arena := core.PooledArena()
	defer arena.Release()
	sim, err := NewCell(sp.machine, j.Benchmark, sp.factory, j.Soundness, arena, opts...)
	if err != nil {
		return nil, err
	}
	return sim.RunContext(ctx, j.Insts)
}

// ExecuteJob runs one wire job to completion. It is the server-side
// counterpart of Suite's in-process runner: the spec is validated, its run
// key looked up in the same run-spec table (or its policy in the same
// factory table), and the cell built by the same NewCell, so the result is
// byte-identical to a local run of the same cell. A panic anywhere inside
// the simulator is returned as an error, never propagated — one bad job
// must not take down a serving process.
func ExecuteJob(ctx context.Context, j JobSpec) (*core.Result, error) {
	return ExecuteJobWithSampler(ctx, j, nil)
}

// ExecuteJobWithSampler is ExecuteJob with a telemetry sampler attached to
// the run (nil behaves like ExecuteJob). The dmdcd server registers the
// sampler under the job's id so clients can watch per-job time series over
// the wire while the job runs.
func ExecuteJobWithSampler(ctx context.Context, j JobSpec, sampler *telemetry.Sampler) (r *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("experiments: job panic: %v", p)
		}
	}()
	if err := j.Validate(); err != nil {
		return nil, err
	}
	if len(j.Checkpoint) > 0 {
		// Restored intervals never attach a sampler: telemetry is one of
		// the subsystems the checkpoint format fails closed on.
		return executeRestored(ctx, j)
	}
	sp, err := specForJob(j)
	if err != nil {
		return nil, err
	}
	return executeCell(ctx, &sp, j, sampler, nil)
}

// executeRestored runs a checkpoint job: verify the payload against its
// content address, build the cell through NewCell like any policy job
// (minus every option the checkpoint format refuses, so restored state
// lands in a simulation shaped like the sampled pass that saved it),
// restore, and run the interval.
func executeRestored(ctx context.Context, j JobSpec) (*core.Result, error) {
	sum := sha256.Sum256(j.Checkpoint)
	if ref := hex.EncodeToString(sum[:]); ref != j.CheckpointRef {
		return nil, fmt.Errorf("experiments: checkpoint payload hashes to %s, job says %s", ref, j.CheckpointRef)
	}
	f, err := PolicyFactoryByName(j.Policy)
	if err != nil {
		return nil, err
	}
	arena := core.PooledArena()
	defer arena.Release()
	sim, err := NewCell(j.Machine, j.Benchmark, f, false, arena)
	if err != nil {
		return nil, err
	}
	if err := sim.RestoreCheckpoint(j.Checkpoint); err != nil {
		return nil, err
	}
	return sim.RunContext(ctx, j.Insts)
}
