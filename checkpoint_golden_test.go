package dmdc_test

// Restore-equivalence over the golden matrix: every (benchmark, config,
// policy) cell is run to mid-stream commit points, checkpointed there, and
// run to completion; each checkpoint is then restored into a pristine
// simulator and run to the same budget. Both the continued donor and every
// restored run must reproduce the cell's committed golden fingerprint
// byte-for-byte.
//
// This is the contract sampled-mode execution rests on (DESIGN.md §14): a
// checkpoint is a complete, side-effect-free capture of simulator state,
// so detailed intervals can be sharded across processes and machines
// without changing a single committed cycle.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"dmdc"
	"dmdc/internal/core"
	"dmdc/internal/energy"
	"dmdc/internal/experiments"
	"dmdc/internal/trace"
)

// goldenFactoryNames maps the golden policy axis to the canonical factory
// names used by experiments.PolicyFactoryByName (the golden file names
// predate the canonical naming and differ for two entries).
var goldenFactoryNames = map[string]string{
	"baseline":    "baseline",
	"yla":         "yla",
	"dmdc-global": "dmdc",
	"dmdc-local":  "dmdc-local",
	"valuebased":  "value-based",
}

// newCellSim builds a pristine simulator for one golden cell.
func newCellSim(t *testing.T, cfg dmdc.Machine, bench, policy string) *core.Sim {
	t.Helper()
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatalf("profile %q: %v", bench, err)
	}
	factory, err := experiments.PolicyFactoryByName(goldenFactoryNames[policy])
	if err != nil {
		t.Fatalf("policy %q: %v", policy, err)
	}
	em := energy.NewModel(cfg.CoreSize())
	pol, err := factory(cfg, em)
	if err != nil {
		t.Fatalf("policy %q on %s: %v", policy, cfg.Name, err)
	}
	sim, err := core.New(cfg, prof, pol, em)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return sim
}

// TestCheckpointRestoreGolden checkpoints every golden cell at two
// irregular mid-run commit points (the pipeline is live — in-flight ROB
// entries, pending replays, wrong-path fetch — whenever the budget lands
// mid-flight) and proves save-purity and restore-equivalence against the
// committed golden fingerprints.
func TestCheckpointRestoreGolden(t *testing.T) {
	capturePoints := []uint64{17_000, 33_000}
	benches := goldenBenchmarks
	cfgs := goldenConfigs()
	pols := goldenPolicies
	if testing.Short() {
		// One cell per policy keeps the restore contract covered in short
		// runs; the full matrix runs in `make sample-check`.
		benches = benches[:1]
		cfgs = cfgs[:1]
	}
	for _, bench := range benches {
		for _, cfg := range cfgs {
			for _, pol := range pols {
				bench, cfg, pol := bench, cfg, pol
				name := fmt.Sprintf("%s/%s/%s", bench, cfg.Name, pol.name)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					want, err := os.ReadFile(goldenPath(bench, cfg.Name, pol.name))
					if err != nil {
						t.Fatalf("missing golden fingerprint (run `go test -run Golden -update .`): %v", err)
					}

					donor := newCellSim(t, cfg, bench, pol.name)
					type capture struct {
						at   uint64
						blob []byte
					}
					var caps []capture
					var done uint64
					for _, at := range capturePoints {
						// A run segment can overshoot its commit target when
						// the final cycle commits several instructions, so the
						// next segment budgets from the actual committed count.
						seg, err := donor.Run(at - done)
						if err != nil {
							t.Fatalf("donor run to %d: %v", at, err)
						}
						done = seg.Insts
						blob, err := donor.SaveCheckpoint()
						if err != nil {
							t.Fatalf("save at %d: %v", at, err)
						}
						caps = append(caps, capture{done, blob})
					}
					res, err := donor.Run(goldenInsts - done)
					if err != nil {
						t.Fatalf("donor run to end: %v", err)
					}
					got, err := fingerprint(res)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("checkpointing perturbed the donor run\n%s", goldenDiff(want, got))
					}

					for _, cp := range caps {
						restored := newCellSim(t, cfg, bench, pol.name)
						if err := restored.RestoreCheckpoint(cp.blob); err != nil {
							t.Fatalf("restore at %d: %v", cp.at, err)
						}
						res, err := restored.Run(goldenInsts - cp.at)
						if err != nil {
							t.Fatalf("restored run from %d: %v", cp.at, err)
						}
						got, err := fingerprint(res)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("restore at %d diverged from golden fingerprint\n%s",
								cp.at, goldenDiff(want, got))
						}
					}
				})
			}
		}
	}
}

// TestCheckpointBytesPinned pins the checkpoint encoding itself: the
// SHA-256 of a Config2/gcc/dmdc checkpoint saved mid-run, with a live
// window, ready bitmap and consumer lists. Sampled-mode interval jobs are
// content-addressed by these hashes, so any encoding drift — a field
// added, dropped, reordered or written differently — moves every
// interval's cache key. This fails the tier-1 suite first. After an
// intentional format change, bump checkpoint.FormatVersion and re-pin.
func TestCheckpointBytesPinned(t *testing.T) {
	const (
		insts = 20_000
		want  = "80d91f4592f81ab93024b54b84b95022a272be4e28ef6a0f233409e7391ed069"
	)
	sim := newCellSim(t, dmdc.Config2(), "gcc", "dmdc-global")
	if _, err := sim.Run(insts); err != nil {
		t.Fatalf("run to %d: %v", insts, err)
	}
	blob, err := sim.SaveCheckpoint()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("checkpoint bytes changed: sha256 %s (%d bytes), pinned %s", got, len(blob), want)
	}
}
