package trace

import (
	"bytes"
	"testing"

	"dmdc/internal/checkpoint"
	"dmdc/internal/isa"
)

func TestProfilesValid(t *testing.T) {
	ps := Profiles()
	if len(ps) != 26 {
		t.Fatalf("expected 26 benchmarks, got %d", len(ps))
	}
	seen := make(map[string]bool)
	perClass := make(map[Class]int)
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile name %s", p.Name)
		}
		seen[p.Name] = true
		perClass[p.Class]++
	}
	if got := perClass[INT]; got != 12 {
		t.Errorf("INT count = %d, want 12", got)
	}
	if got := perClass[FP]; got != 14 {
		t.Errorf("FP count = %d, want 14", got)
	}
}

func TestClassString(t *testing.T) {
	if INT.String() != "INT" || FP.String() != "FP" {
		t.Error("class names wrong")
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mcf" || p.Class != INT {
		t.Errorf("wrong profile: %+v", p)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if len(Names()) != 26 {
		t.Error("Names() wrong length")
	}
}

func TestValidateRejectsBad(t *testing.T) {
	good := baseINT("x", 1)
	muts := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Blocks = 1 },
		func(p *Profile) { p.BlockMax = p.BlockMin - 1 },
		func(p *Profile) { p.LoadFrac = 1.5 },
		func(p *Profile) { p.LoadFrac = 0.6; p.StoreFrac = 0.5 },
		func(p *Profile) { p.Branch.BiasedFrac = 0.9; p.Branch.LoopFrac = 0.9 },
		func(p *Profile) { p.WorkingSetKB = 0 },
		func(p *Profile) { p.AliasWindow = 0 },
		func(p *Profile) { p.DepDistMean = 0.5 },
		func(p *Profile) { p.SizeW = [4]float64{} },
		func(p *Profile) { p.SizeW[0] = -1 },
		func(p *Profile) { p.AddrReadyFrac = -0.1 },
	}
	for i, mut := range muts {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("gcc")
	g1 := NewGenerator(p)
	g2 := NewGenerator(p)
	for i := 0; i < 20000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("streams diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestGeneratorInstructionsValid(t *testing.T) {
	for _, p := range Profiles() {
		g := NewGenerator(p)
		for i := 0; i < 5000; i++ {
			in := g.Next()
			if err := in.Validate(); err != nil {
				t.Fatalf("%s inst %d invalid: %v (%v)", p.Name, i, err, &in)
			}
			if in.Seq != uint64(i) {
				t.Fatalf("%s: seq %d at position %d", p.Name, in.Seq, i)
			}
		}
	}
}

// The dynamic instruction mix must track the profile's requested mix.
func TestGeneratorMix(t *testing.T) {
	for _, name := range []string{"gzip", "swim"} {
		p, _ := ByName(name)
		g := NewGenerator(p)
		n := 100000
		var loads, stores, branches float64
		for i := 0; i < n; i++ {
			switch g.Next().Op {
			case isa.OpLoad:
				loads++
			case isa.OpStore:
				stores++
			case isa.OpBranch:
				branches++
			}
		}
		loadRate := loads / float64(n)
		storeRate := stores / float64(n)
		branchRate := branches / float64(n)
		// Branch rate ~ 1/avgBlockLen; loads/stores are profile fractions of
		// the non-branch slots.
		wantLoad := p.LoadFrac * (1 - branchRate)
		wantStore := p.StoreFrac * (1 - branchRate)
		// Loop blocks dominate the dynamic stream, so the dynamic mix can
		// drift from the static fractions — allow a generous band.
		if loadRate < wantLoad*0.7 || loadRate > wantLoad*1.4 {
			t.Errorf("%s: load rate %.3f, want ≈ %.3f", name, loadRate, wantLoad)
		}
		if storeRate < wantStore*0.5 || storeRate > wantStore*1.7 {
			t.Errorf("%s: store rate %.3f, want ≈ %.3f", name, storeRate, wantStore)
		}
		if branchRate < 0.02 || branchRate > 0.30 {
			t.Errorf("%s: branch rate %.3f implausible", name, branchRate)
		}
		if p.Class == FP {
			// FP codes have longer blocks, hence fewer branches.
			if branchRate > 0.12 {
				t.Errorf("%s: FP branch rate %.3f too high", name, branchRate)
			}
		}
	}
}

// Branch PCs must recur (static sites) so predictors can learn them.
func TestBranchSitesRecur(t *testing.T) {
	p, _ := ByName("gzip")
	g := NewGenerator(p)
	pcs := make(map[uint64]int)
	for i := 0; i < 50000; i++ {
		in := g.Next()
		if in.Op.IsBranch() {
			pcs[in.PC]++
		}
	}
	if len(pcs) == 0 {
		t.Fatal("no branches generated")
	}
	if len(pcs) > p.Blocks {
		t.Errorf("more branch sites (%d) than blocks (%d)", len(pcs), p.Blocks)
	}
	var repeats int
	for _, n := range pcs {
		if n > 1 {
			repeats++
		}
	}
	if repeats < len(pcs)/2 {
		t.Errorf("too few recurring branch sites: %d of %d", repeats, len(pcs))
	}
}

// Branch targets must match the block the stream actually continues to.
func TestBranchTargetsConsistent(t *testing.T) {
	p, _ := ByName("vpr")
	g := NewGenerator(p)
	var prev *isa.Inst
	for i := 0; i < 20000; i++ {
		in := g.Next()
		if prev != nil && prev.Op.IsBranch() && prev.Taken {
			if in.PC != prev.Target {
				t.Fatalf("taken branch at %#x targets %#x but stream continued at %#x",
					prev.PC, prev.Target, in.PC)
			}
		}
		if prev != nil && prev.Op.IsBranch() && !prev.Taken {
			if in.PC != prev.PC+4 {
				t.Fatalf("not-taken branch at %#x should fall through to %#x, got %#x",
					prev.PC, prev.PC+4, in.PC)
			}
		}
		cp := in
		prev = &cp
	}
}

// Store→load aliasing must appear at roughly the profile rate.
func TestAliasingPresent(t *testing.T) {
	p, _ := ByName("vortex") // highest alias rate
	g := NewGenerator(p)
	type ref struct {
		addr uint64
		size uint8
	}
	var recent []ref
	var loads, aliased int
	for i := 0; i < 200000; i++ {
		in := g.Next()
		if in.Op.IsStore() {
			recent = append(recent, ref{in.Addr, in.Size})
			if len(recent) > 64 {
				recent = recent[1:]
			}
		}
		if in.Op.IsLoad() {
			loads++
			for _, r := range recent {
				if isa.Overlap(in.Addr, in.Size, r.addr, r.size) {
					aliased++
					break
				}
			}
		}
	}
	rate := float64(aliased) / float64(loads)
	if rate < p.AliasRate*0.6 {
		t.Errorf("alias rate %.4f too low vs profile %.4f", rate, p.AliasRate)
	}
}

// Working-set size must actually bound the addresses generated.
func TestWorkingSetBounds(t *testing.T) {
	p, _ := ByName("gzip")
	g := NewGenerator(p)
	limit := uint64(dataBase) + uint64(p.WorkingSetKB)*1024 + 8
	for i := 0; i < 50000; i++ {
		in := g.Next()
		if !in.Op.IsMem() {
			continue
		}
		inData := in.Addr >= dataBase && in.Addr < limit
		inStack := in.Addr >= stackBase && in.Addr < stackBase+stackSize+8
		if !inData && !inStack {
			t.Fatalf("address %#x outside data and stack regions", in.Addr)
		}
	}
}

func TestWrongPath(t *testing.T) {
	p, _ := ByName("gcc")
	g := NewGenerator(p)
	// Find a branch on the committed path.
	var br isa.Inst
	for {
		in := g.Next()
		if in.Op.IsBranch() {
			br = in
			break
		}
	}
	ws := g.WrongPath(br.PC, !br.Taken, 7)
	if ws == nil {
		t.Fatal("wrong path for known branch PC returned nil")
	}
	// Wrong-path streams must be deterministic given the same salt.
	ws2 := g.WrongPath(br.PC, !br.Taken, 7)
	for i := 0; i < 200; i++ {
		a, b := ws.Next(), ws2.Next()
		if a != b {
			t.Fatalf("wrong-path streams diverge at %d", i)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("wrong-path inst %d invalid: %v", i, err)
		}
	}
	// Unknown PC yields nil (front end stalls).
	if g.WrongPath(0xdeadbeef, true, 0) != nil {
		t.Error("unknown branch PC should return nil")
	}
}

// Wrong-path streams must not perturb the committed path.
func TestWrongPathDoesNotPerturb(t *testing.T) {
	p, _ := ByName("parser")
	gA := NewGenerator(p)
	gB := NewGenerator(p)
	// Drain some instructions, spawning wrong paths on gA only.
	for i := 0; i < 5000; i++ {
		a := gA.Next()
		b := gB.Next()
		if a != b {
			t.Fatalf("streams diverge at %d", i)
		}
		if a.Op.IsBranch() && i%7 == 0 {
			ws := gA.WrongPath(a.PC, !a.Taken, uint64(i))
			if ws != nil {
				for j := 0; j < 50; j++ {
					ws.Next()
				}
			}
		}
	}
}

// The first block's PC must be the code base and PCs must advance by 4.
func TestPCLayout(t *testing.T) {
	p, _ := ByName("gzip")
	g := NewGenerator(p)
	in := g.Next()
	if in.PC != codeBase {
		t.Errorf("first PC = %#x, want %#x", in.PC, uint64(codeBase))
	}
	prevPC := in.PC
	wasBranch := in.Op.IsBranch()
	for i := 0; i < 1000; i++ {
		in := g.Next()
		if !wasBranch && in.PC != prevPC+4 {
			t.Fatalf("PC jumped from %#x to %#x without a branch", prevPC, in.PC)
		}
		prevPC = in.PC
		wasBranch = in.Op.IsBranch()
	}
}

// Profile accessor must round-trip.
func TestGeneratorProfile(t *testing.T) {
	p, _ := ByName("art")
	g := NewGenerator(p)
	if g.Profile().Name != "art" {
		t.Error("Profile() does not round-trip")
	}
}

func TestNewGeneratorPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGenerator with invalid profile should panic")
		}
	}()
	NewGenerator(Profile{})
}

// Loads must sometimes depend on base registers (ready addresses) and
// sometimes on recent producers, per AddrReadyFrac.
func TestAddressReadiness(t *testing.T) {
	p, _ := ByName("gzip")
	g := NewGenerator(p)
	var baseCnt, total int
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if !in.Op.IsMem() {
			continue
		}
		total++
		if in.Src1 >= 1 && in.Src1 <= 3 {
			baseCnt++
		}
	}
	frac := float64(baseCnt) / float64(total)
	if frac < p.AddrReadyFrac*0.7 || frac > p.AddrReadyFrac*1.2+0.05 {
		t.Errorf("base-register address fraction %.3f vs profile %.3f", frac, p.AddrReadyFrac)
	}
}

// encodeGenerator returns the checkpoint encoding of g's state.
func encodeGenerator(g *Generator) []byte {
	e := checkpoint.NewEncoder()
	g.State(&e.Codec)
	return e.Finish()
}

// A generator reset after following wrong paths must be exactly the
// generator NewGenerator builds for the new profile: it checkpoints as one
// that never had a wrong-path stream, and with reuse enabled it yields the
// same committed and wrong-path instructions.
func TestResetMatchesNewGenerator(t *testing.T) {
	reused := NewGenerator(mustProfile(t, "swim"))
	for _, name := range []string{"gcc", "swim", "gcc"} {
		reused.EnableWrongPathReuse()
		for i := 0; i < 3000; i++ {
			if in := reused.Next(); in.Op.IsBranch() {
				reused.WrongPath(in.PC, !in.Taken, uint64(i)).Next()
			}
		}
		p := mustProfile(t, name)
		reused.Reset(p)
		fresh := NewGenerator(p)
		if !bytes.Equal(encodeGenerator(reused), encodeGenerator(fresh)) {
			t.Fatalf("%s: reset state differs from a new generator", name)
		}
		reused.EnableWrongPathReuse()
		fresh.EnableWrongPathReuse()
		for i := 0; i < 3000; i++ {
			a, b := reused.Next(), fresh.Next()
			if a != b {
				t.Fatalf("%s: instruction %d after reset %+v, fresh %+v", name, i, a, b)
			}
			if a.Op.IsBranch() {
				wa, wb := reused.WrongPath(a.PC, !a.Taken, uint64(i)), fresh.WrongPath(b.PC, !b.Taken, uint64(i))
				for j := 0; j < 8; j++ {
					if x, y := wa.Next(), wb.Next(); x != y {
						t.Fatalf("%s: wrong-path instruction %d after reset %+v, fresh %+v", name, j, x, y)
					}
				}
			}
		}
		if !bytes.Equal(encodeGenerator(reused), encodeGenerator(fresh)) {
			t.Fatalf("%s: reset generator ran differently from a new one", name)
		}
	}
}

// Profiles hands out a copy: changing it leaves the catalog alone.
func TestProfilesIsACopy(t *testing.T) {
	ps := Profiles()
	ps[0].Seed++
	if p := mustProfile(t, ps[0].Name); p.Seed == ps[0].Seed {
		t.Fatal("modifying Profiles' result changed the catalog")
	}
}

func mustProfile(t *testing.T, name string) Profile {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
