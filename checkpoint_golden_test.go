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
	"dmdc/internal/lsq"
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
	factory, err := experiments.PolicyFactoryByName(goldenFactoryNames[policy])
	if err != nil {
		t.Fatalf("policy %q: %v", policy, err)
	}
	return newFactorySim(t, cfg, bench, factory)
}

// newFactorySim builds a pristine simulator with the policy factory made.
func newFactorySim(t *testing.T, cfg dmdc.Machine, bench string, factory experiments.PolicyFactory) *core.Sim {
	t.Helper()
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatalf("profile %q: %v", bench, err)
	}
	em := energy.NewModel(cfg.CoreSize())
	pol, err := factory(cfg, em)
	if err != nil {
		t.Fatalf("policy on %s: %v", cfg.Name, err)
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
// SHA-256 of a Config2 checkpoint saved mid-run, with a live window, ready
// bitmap and consumer lists, for every checkpointable policy layout on an
// integer and a floating-point benchmark. Sampled-mode interval jobs are
// content-addressed by these hashes, so any encoding drift — a field
// added, dropped, reordered or written differently — moves every
// interval's cache key. This fails the tier-1 suite first. After an
// intentional format change, bump checkpoint.FormatVersion and re-pin.
func TestCheckpointBytesPinned(t *testing.T) {
	const insts = 20_000
	bloom := func(m dmdc.Machine, em *energy.Model) (lsq.Policy, error) {
		return lsq.NewCAM(lsq.CAMConfig{LQSize: m.LQSize, Filter: lsq.FilterBloom, BloomSize: 256}, em)
	}
	pins := []struct {
		bench, policy string
		factory       experiments.PolicyFactory // nil: PolicyFactoryByName(policy)
		want          string
	}{
		{"gcc", "baseline", nil, "92f6dc5f85eb3e9d8c350ced57239d20283ef0eee78c179d94e23b0f846f4ea0"},
		{"gcc", "yla", nil, "3ad0a6f71b30394ad2806811386818f15c53f2e7023fe86ed8d2ce44e904af6e"},
		{"gcc", "dmdc", nil, "80d91f4592f81ab93024b54b84b95022a272be4e28ef6a0f233409e7391ed069"},
		{"gcc", "dmdc-local", nil, "027cdf98d59a8132ea58bd8b3a46197e6c2760aa6742730f9f6108b688983795"},
		{"gcc", "agetable", nil, "0d1a0ed56ffbb5329f666d1d7dfdeb47c8729d19846754c604ae76d753ca5125"},
		{"gcc", "value-based", nil, "33a4142eabdbdd9047b2dcaaee3208b1dedacf8ea7225a8ba1d9927efcea6e21"},
		{"gcc", "value-svw", nil, "ef33eacf6ba2ce19a118ce33803161045f37ef6e84004794111716322a89d40b"},
		{"gcc", "bloom", bloom, "54930e390e55ad72025d0280d2a239429311707966616b1327aa07de0429d122"},
		{"gcc", "dmdc-queue", experiments.DMDCQueueFactory(16), "f288c5390cbbfce4ef9bad37c01097d6830776c7b9c5f83cfc85a09cca6c6e00"},
		{"swim", "baseline", nil, "cb04ecd62978b9a38714f0fa6d7adada26985bad8880aa4f516f38a031cff81d"},
		{"swim", "yla", nil, "b0ee1a604b4c5e7ce369ca66d162c2a8dc3206f4bbfcb70d6b2455d5c083834b"},
		{"swim", "dmdc", nil, "2cae8208058b525a50cc862b1e83285290c6b99fec7a60b6e7e5a4a487eb4c82"},
		{"swim", "dmdc-local", nil, "e824bb9c7a48f0e97dcd0b504d29731fe81c92579da88b12f4e486db5a8a7cca"},
		{"swim", "agetable", nil, "2b9494221e5251789c91af51f7c8e325119279e0732c74e379ac242990f08f3a"},
		{"swim", "value-based", nil, "773c56f2de1d81370027e709642bae5ecba30c1ff2fc88bbc69da65db5921c19"},
		{"swim", "value-svw", nil, "9d95126d32a0d2df0ead3e49e553c6bf1e535f19f4fb7bac3fab460739e7912f"},
		{"swim", "bloom", bloom, "c9d284bfe70f66f2a1b7672c54efd2b01169de0fa7ce5f0067ff623b85fd05bd"},
		{"swim", "dmdc-queue", experiments.DMDCQueueFactory(16), "c0fc9a83edd6d71764ba5a24f6a24b8759cf4231f2b5913a163523809b5cfdb3"},
	}
	for _, p := range pins {
		t.Run(p.bench+"/"+p.policy, func(t *testing.T) {
			f := p.factory
			if f == nil {
				var err error
				if f, err = experiments.PolicyFactoryByName(p.policy); err != nil {
					t.Fatal(err)
				}
			}
			sim := newFactorySim(t, dmdc.Config2(), p.bench, f)
			if _, err := sim.Run(insts); err != nil {
				t.Fatalf("run to %d: %v", insts, err)
			}
			blob, err := sim.SaveCheckpoint()
			if err != nil {
				t.Fatalf("save: %v", err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != p.want {
				t.Errorf("checkpoint bytes changed: sha256 %s (%d bytes), pinned %s", got, len(blob), p.want)
			}
		})
	}
}
