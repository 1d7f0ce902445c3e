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
	if j.RunKey != "" {
		sp, ok := resolveSpec(j.RunKey)
		if !ok {
			return fmt.Errorf("experiments: unknown run key %q", j.RunKey)
		}
		if j.Machine.Name != "" && j.Machine.Name != sp.machine.Name {
			return fmt.Errorf("experiments: run key %q pins machine %s, job says %s",
				j.RunKey, sp.machine.Name, j.Machine.Name)
		}
	} else {
		if _, err := PolicyFactoryByName(j.Policy); err != nil {
			return err
		}
		if err := j.Machine.Validate(); err != nil {
			return fmt.Errorf("experiments: job machine: %w", err)
		}
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
// cache — the same address Suite uses for in-process runs, so results
// computed locally, remotely, or in a previous process are interchangeable.
// It doubles as the job's idempotency key on the wire: resubmitting an
// identical spec addresses the same job.
func (j JobSpec) CacheKey() string {
	runKey := j.RunKey
	machine := j.Machine
	if runKey == "" {
		// Policy jobs get a reserved pseudo-key namespace; ":" cannot occur
		// in experiment run keys, so the two spaces never collide.
		runKey = "policy:" + j.Policy
	} else if sp, ok := resolveSpec(runKey); ok {
		machine = sp.machine
	}
	return resultcache.Key(resultcache.KeySpec{
		Machine:       machine,
		RunKey:        runKey,
		Benchmark:     j.Benchmark,
		Insts:         j.Insts,
		Faults:        j.Faults,
		CheckpointRef: j.CheckpointRef,
	})
}

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

// PolicyNames lists the canonical policy names accepted by
// PolicyFactoryByName, in declaration order. The names round-trip through
// dmdc.PolicyKind.String / dmdc.ParsePolicy.
func PolicyNames() []string {
	return []string{"baseline", "yla", "dmdc", "dmdc-local", "agetable", "value-based", "value-svw"}
}

// PolicyFactoryByName maps a canonical policy name to its factory. This is
// the single name→construction table: the dmdc facade, the CLIs, and the
// dmdcd server all resolve policy names here.
func PolicyFactoryByName(name string) (PolicyFactory, error) {
	switch name {
	case "baseline":
		return BaselineFactory, nil
	case "yla":
		return YLAFactory, nil
	case "dmdc":
		return DMDCGlobalFactory, nil
	case "dmdc-local":
		return DMDCLocalFactory, nil
	case "agetable":
		return AgeTableFactory, nil
	case "value-based":
		return ValueBasedFactory, nil
	case "value-svw":
		return ValueSVWFactory, nil
	}
	return nil, fmt.Errorf("experiments: unknown policy %q (valid: %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// specForJob materializes the runSpec a JobSpec describes.
func specForJob(j JobSpec) (runSpec, error) {
	if j.RunKey != "" {
		sp, ok := resolveSpec(j.RunKey)
		if !ok {
			return runSpec{}, fmt.Errorf("experiments: unknown run key %q", j.RunKey)
		}
		return sp, nil
	}
	f, err := PolicyFactoryByName(j.Policy)
	if err != nil {
		return runSpec{}, err
	}
	return runSpec{key: "policy:" + j.Policy, machine: j.Machine, factory: f}, nil
}

// execParams is everything outside the runSpec that shapes one cell.
type execParams struct {
	insts     uint64
	soundness bool
	faults    soundness.FaultSpec
	watchdog  uint64
	sampler   *telemetry.Sampler
	tape      *trace.Tape // the benchmark's committed path; nil generates it
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

// executeCell builds and runs one cell of the matrix or one wire job: the
// spec's own options, then the run's verification, injection and
// telemetry settings.
func executeCell(ctx context.Context, sp runSpec, bench string, p execParams) (*core.Result, error) {
	opts := append([]core.Option{}, sp.opts...)
	if sp.monitors != nil {
		opts = append(opts, core.WithMonitors(sp.monitors()...))
	}
	if !p.faults.Zero() {
		opts = append(opts, core.WithFaults(p.faults))
	}
	if p.watchdog > 0 {
		opts = append(opts, core.WithWatchdog(p.watchdog))
	}
	if p.sampler != nil {
		opts = append(opts, core.WithTelemetry(p.sampler))
	}
	if p.tape != nil {
		opts = append(opts, core.WithTape(p.tape))
	}
	arena := core.PooledArena()
	defer arena.Release()
	sim, err := NewCell(sp.machine, bench, sp.factory, p.soundness, arena, opts...)
	if err != nil {
		return nil, err
	}
	return sim.RunContext(ctx, p.insts)
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
	var faults soundness.FaultSpec
	if j.Faults != "" {
		if faults, err = soundness.ParseFaultSpec(j.Faults); err != nil {
			return nil, err
		}
	}
	return executeCell(ctx, sp, j.Benchmark, execParams{
		insts:     j.Insts,
		soundness: j.Soundness,
		faults:    faults,
		watchdog:  j.WatchdogCycles,
		sampler:   sampler,
	})
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
