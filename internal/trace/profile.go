// Package trace generates deterministic synthetic instruction streams that
// stand in for the paper's SPEC CPU2000 SimPoint traces. A Profile captures
// the statistical properties that the studied mechanisms are sensitive to:
// instruction mix, register-dependence distances, branch predictability,
// working-set size and locality, store-to-load aliasing, and how early
// memory addresses become ready (which governs how far memory instructions
// issue out of program order — the key driver of YLA filtering rates).
//
// The synthetic "program" is a static control-flow graph of basic blocks;
// each block has fixed per-slot operation classes and ends in a static
// branch driven by a per-site pattern machine, so branch-predictor and
// I-cache behavior is realistic and the exact dynamic stream is reproducible
// from the profile seed.
package trace

import (
	"fmt"
	"slices"
)

// Class groups benchmarks the way the paper reports them.
type Class int

// Benchmark classes.
const (
	INT Class = iota
	FP
)

// String returns "INT" or "FP".
func (c Class) String() string {
	if c == INT {
		return "INT"
	}
	return "FP"
}

// BranchStyle describes the mixture of static branch site behaviors.
type BranchStyle struct {
	BiasedFrac  float64 // sites almost always one direction
	LoopFrac    float64 // sites taken k times then not taken (loop back-edges)
	PatternFrac float64 // short repeating patterns (gshare-learnable)
	// Remainder is data-dependent (hard to predict), taken with RandBias.
	RandBias float64
	LoopMin  int
	LoopMax  int
}

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name  string
	Class Class
	Seed  int64

	// Static code shape.
	Blocks   int // number of basic blocks
	BlockMin int // min instructions per block (including the branch)
	BlockMax int

	// Dynamic instruction mix (fractions of non-branch slots; the rest
	// become integer ALU operations).
	LoadFrac    float64
	StoreFrac   float64
	FPFrac      float64 // fraction of compute ops on the FP cluster
	LongLatFrac float64 // fraction of compute ops that are mul/div

	Branch BranchStyle

	// Memory behavior.
	WorkingSetKB int        // data region size
	SeqFrac      float64    // accesses walking sequential streams
	StackFrac    float64    // accesses to a small hot region
	PointerChase float64    // loads whose address depends on a recent load
	AliasRate    float64    // probability a load reads a recent store's address
	AliasWindow  int        // how many stores back aliasing can reach
	SizeW        [4]float64 // weights for access sizes 1,2,4,8

	// Dataflow.
	DepDistMean   float64 // mean register-dependence distance (geometric)
	AddrReadyFrac float64 // loads whose address uses a stale base register
	// StoreAddrReadyFrac is the fraction of stores whose address operand is
	// a stale base register; the remainder use a short ALU chain, making
	// the store resolve a few cycles after dispatch — the slight
	// memory-issue disorder the YLA mechanism exploits.
	StoreAddrReadyFrac float64
	// StorePtrFrac is the fraction of *late* store addresses that are
	// pointer-dependent (st [ptr->field]), resolving only after a nearby
	// load completes. High for pointer-heavy integer codes, near zero for
	// dense-array FP codes; its cache-miss tail is what occasionally opens
	// very long checking windows.
	StorePtrFrac float64
}

// Validate reports the first invalid field, or nil.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile has no name")
	}
	if p.Blocks < 2 || p.BlockMin < 2 || p.BlockMax < p.BlockMin {
		return fmt.Errorf("trace: %s: bad block shape (%d blocks, %d..%d)", p.Name, p.Blocks, p.BlockMin, p.BlockMax)
	}
	fracs := []struct {
		name string
		v    float64
	}{
		{"LoadFrac", p.LoadFrac}, {"StoreFrac", p.StoreFrac},
		{"FPFrac", p.FPFrac}, {"LongLatFrac", p.LongLatFrac},
		{"SeqFrac", p.SeqFrac}, {"StackFrac", p.StackFrac},
		{"PointerChase", p.PointerChase}, {"AliasRate", p.AliasRate},
		{"AddrReadyFrac", p.AddrReadyFrac}, {"StoreAddrReadyFrac", p.StoreAddrReadyFrac},
		{"StorePtrFrac", p.StorePtrFrac},
		{"Branch.BiasedFrac", p.Branch.BiasedFrac}, {"Branch.LoopFrac", p.Branch.LoopFrac},
		{"Branch.PatternFrac", p.Branch.PatternFrac}, {"Branch.RandBias", p.Branch.RandBias},
	}
	for _, f := range fracs {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("trace: %s: %s = %v out of [0,1]", p.Name, f.name, f.v)
		}
	}
	if p.LoadFrac+p.StoreFrac > 0.9 {
		return fmt.Errorf("trace: %s: memory fraction %v too high", p.Name, p.LoadFrac+p.StoreFrac)
	}
	if p.Branch.BiasedFrac+p.Branch.LoopFrac+p.Branch.PatternFrac > 1 {
		return fmt.Errorf("trace: %s: branch style fractions exceed 1", p.Name)
	}
	if p.WorkingSetKB < 1 {
		return fmt.Errorf("trace: %s: working set %dKB too small", p.Name, p.WorkingSetKB)
	}
	if p.AliasWindow < 1 {
		return fmt.Errorf("trace: %s: alias window %d too small", p.Name, p.AliasWindow)
	}
	if p.DepDistMean < 1 {
		return fmt.Errorf("trace: %s: dependence distance %v too small", p.Name, p.DepDistMean)
	}
	var sw float64
	for _, w := range p.SizeW {
		if w < 0 {
			return fmt.Errorf("trace: %s: negative size weight", p.Name)
		}
		sw += w
	}
	if sw == 0 {
		return fmt.Errorf("trace: %s: size weights all zero", p.Name)
	}
	return nil
}

func baseINT(name string, seed int64) Profile {
	return Profile{
		Name:        name,
		Class:       INT,
		Seed:        seed,
		Blocks:      256,
		BlockMin:    4,
		BlockMax:    12,
		LoadFrac:    0.31,
		StoreFrac:   0.14,
		FPFrac:      0.02,
		LongLatFrac: 0.04,
		Branch: BranchStyle{
			BiasedFrac:  0.45,
			LoopFrac:    0.20,
			PatternFrac: 0.20,
			RandBias:    0.6,
			LoopMin:     3,
			LoopMax:     24,
		},
		WorkingSetKB:       512,
		SeqFrac:            0.35,
		StackFrac:          0.30,
		PointerChase:       0.12,
		AliasRate:          0.05,
		AliasWindow:        24,
		SizeW:              [4]float64{0.05, 0.05, 0.45, 0.45},
		DepDistMean:        4.5,
		AddrReadyFrac:      0.80,
		StoreAddrReadyFrac: 0.55,
		StorePtrFrac:       0.15,
	}
}

func baseFP(name string, seed int64) Profile {
	return Profile{
		Name:        name,
		Class:       FP,
		Seed:        seed,
		Blocks:      128,
		BlockMin:    8,
		BlockMax:    24,
		LoadFrac:    0.30,
		StoreFrac:   0.10,
		FPFrac:      0.55,
		LongLatFrac: 0.18,
		Branch: BranchStyle{
			BiasedFrac:  0.35,
			LoopFrac:    0.55,
			PatternFrac: 0.07,
			RandBias:    0.7,
			LoopMin:     16,
			LoopMax:     128,
		},
		WorkingSetKB:       2048,
		SeqFrac:            0.70,
		StackFrac:          0.08,
		PointerChase:       0.02,
		AliasRate:          0.015,
		AliasWindow:        32,
		SizeW:              [4]float64{0.0, 0.02, 0.18, 0.80},
		DepDistMean:        6.0,
		AddrReadyFrac:      0.88,
		StoreAddrReadyFrac: 0.68,
		StorePtrFrac:       0.02,
	}
}

// Profiles returns the 26 synthetic benchmarks standing in for SPEC
// CPU2000: 12 integer and 14 floating point, as a fresh slice the caller
// may modify.
func Profiles() []Profile { return slices.Clone(catalog) }

// catalog is the benchmark catalog, built once: ByName and Names run for
// every cell and every served job.
var catalog = buildCatalog()

// buildCatalog lays out the catalog. The per-benchmark deltas are tuned to
// spread behavior across the ranges the paper's "I-beams" show —
// working-set size (cache behavior), branch entropy (window utilization),
// aliasing (replay pressure), and address readiness (memory issue order).
func buildCatalog() []Profile {
	mk := func(base Profile, mut func(*Profile)) Profile {
		mut(&base)
		return base
	}
	return []Profile{
		// ---- SPECint 2000 ----
		mk(baseINT("gzip", 101), func(p *Profile) {
			p.SeqFrac = 0.55
			p.WorkingSetKB = 192
			p.Branch.BiasedFrac = 0.55
		}),
		mk(baseINT("vpr", 102), func(p *Profile) {
			p.WorkingSetKB = 768
			p.PointerChase = 0.18
			p.Branch.PatternFrac = 0.10
		}),
		mk(baseINT("gcc", 103), func(p *Profile) {
			p.Blocks = 512
			p.BlockMin = 3
			p.BlockMax = 9
			p.Branch.BiasedFrac = 0.35
			p.Branch.PatternFrac = 0.25
			p.WorkingSetKB = 1024
			p.AliasRate = 0.07
		}),
		mk(baseINT("mcf", 104), func(p *Profile) {
			p.WorkingSetKB = 8192
			p.PointerChase = 0.35
			p.SeqFrac = 0.10
			p.AddrReadyFrac = 0.60
			p.StorePtrFrac = 0.35
			p.LoadFrac = 0.30
			p.StoreFrac = 0.09
		}),
		mk(baseINT("crafty", 105), func(p *Profile) {
			p.WorkingSetKB = 256
			p.LongLatFrac = 0.07
			p.Branch.PatternFrac = 0.28
			p.SizeW = [4]float64{0.10, 0.10, 0.30, 0.50}
		}),
		mk(baseINT("parser", 106), func(p *Profile) {
			p.PointerChase = 0.22
			p.WorkingSetKB = 1536
			p.AliasRate = 0.08
			p.AddrReadyFrac = 0.68
		}),
		mk(baseINT("eon", 107), func(p *Profile) {
			p.FPFrac = 0.20
			p.Branch.BiasedFrac = 0.60
			p.WorkingSetKB = 128
			p.StoreFrac = 0.17
		}),
		mk(baseINT("perlbmk", 108), func(p *Profile) {
			p.Blocks = 384
			p.AliasRate = 0.09
			p.StackFrac = 0.42
			p.StoreFrac = 0.16
		}),
		mk(baseINT("gap", 109), func(p *Profile) {
			p.WorkingSetKB = 1024
			p.LongLatFrac = 0.08
			p.SeqFrac = 0.45
		}),
		mk(baseINT("vortex", 110), func(p *Profile) {
			p.Blocks = 448
			p.StackFrac = 0.38
			p.AliasRate = 0.10
			p.StoreFrac = 0.18
			p.LoadFrac = 0.29
		}),
		mk(baseINT("bzip2", 111), func(p *Profile) {
			p.SeqFrac = 0.50
			p.WorkingSetKB = 3072
			p.Branch.RandBias = 0.55
			p.Branch.BiasedFrac = 0.40
		}),
		mk(baseINT("twolf", 112), func(p *Profile) {
			p.WorkingSetKB = 384
			p.PointerChase = 0.16
			p.Branch.PatternFrac = 0.12
			p.AddrReadyFrac = 0.70
		}),

		// ---- SPECfp 2000 ----
		mk(baseFP("wupwise", 201), func(p *Profile) {
			p.WorkingSetKB = 1536
			p.LongLatFrac = 0.22
		}),
		mk(baseFP("swim", 202), func(p *Profile) {
			p.WorkingSetKB = 12288
			p.LoadFrac = 0.26
			p.SeqFrac = 0.90
			p.Branch.BiasedFrac = 0.20
			p.Branch.LoopFrac = 0.70
			p.Branch.LoopMin = 64
			p.Branch.LoopMax = 512
		}),
		mk(baseFP("mgrid", 203), func(p *Profile) {
			p.WorkingSetKB = 6144
			p.SeqFrac = 0.85
			p.LoadFrac = 0.36
			p.StoreFrac = 0.06
		}),
		mk(baseFP("applu", 204), func(p *Profile) {
			p.WorkingSetKB = 8192
			p.SeqFrac = 0.80
			p.BlockMax = 32
		}),
		mk(baseFP("mesa", 205), func(p *Profile) {
			p.FPFrac = 0.35
			p.WorkingSetKB = 512
			p.Branch.BiasedFrac = 0.50
			p.Branch.LoopFrac = 0.30
			p.StackFrac = 0.20
		}),
		mk(baseFP("galgel", 206), func(p *Profile) {
			p.WorkingSetKB = 768
			p.LongLatFrac = 0.25
			p.SeqFrac = 0.75
		}),
		mk(baseFP("art", 207), func(p *Profile) {
			p.WorkingSetKB = 4096
			p.SeqFrac = 0.65
			p.LoadFrac = 0.36
			p.AddrReadyFrac = 0.90
		}),
		mk(baseFP("equake", 208), func(p *Profile) {
			p.WorkingSetKB = 3072
			p.PointerChase = 0.08
			p.SeqFrac = 0.55
			p.AliasRate = 0.03
		}),
		mk(baseFP("facerec", 209), func(p *Profile) {
			p.WorkingSetKB = 2048
			p.SeqFrac = 0.72
			p.LongLatFrac = 0.20
		}),
		mk(baseFP("ammp", 210), func(p *Profile) {
			p.WorkingSetKB = 2560
			p.PointerChase = 0.10
			p.SeqFrac = 0.50
			p.AddrReadyFrac = 0.78
		}),
		mk(baseFP("lucas", 211), func(p *Profile) {
			p.WorkingSetKB = 4096
			p.SeqFrac = 0.82
			p.LongLatFrac = 0.24
		}),
		mk(baseFP("fma3d", 212), func(p *Profile) {
			p.Blocks = 256
			p.WorkingSetKB = 2048
			p.StoreFrac = 0.13
			p.Branch.LoopFrac = 0.45
		}),
		mk(baseFP("sixtrack", 213), func(p *Profile) {
			p.WorkingSetKB = 1024
			p.LongLatFrac = 0.28
			p.SeqFrac = 0.68
		}),
		mk(baseFP("apsi", 214), func(p *Profile) {
			p.WorkingSetKB = 1792
			p.SeqFrac = 0.60
			p.Branch.LoopFrac = 0.50
			p.StackFrac = 0.12
		}),
	}
}

// ByClass returns only the profiles of class c, in suite order.
func ByClass(c Class) []Profile {
	var out []Profile
	for _, p := range catalog {
		if p.Class == c {
			out = append(out, p)
		}
	}
	return out
}

// ByName returns the named profile, or an error listing valid names.
func ByName(name string) (Profile, error) {
	for _, p := range catalog {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// Names returns all benchmark names in suite order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, p := range catalog {
		out[i] = p.Name
	}
	return out
}
