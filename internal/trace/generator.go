package trace

import (
	"slices"
	"sync"

	"dmdc/internal/xrand"

	"dmdc/internal/isa"
)

// Memory layout of the synthetic address space.
const (
	codeBase  = 0x0040_0000
	dataBase  = 0x1000_0000
	stackBase = 0x7fff_0000
	stackSize = 1024 // hot-region bytes
)

type branchKind uint8

const (
	brBiased branchKind = iota
	brLoop
	brPattern
	brRandom
)

// branchSite is one static branch with its behavioral pattern machine.
// Data-dependent sites are taken with the profile's Branch.RandBias, held
// as a cut in drawCuts. A site is immutable; the machine's one piece of
// state, the committed path's counter (a loop's iteration, a pattern's
// position), is kept per generator (Generator.counters).
type branchSite struct {
	kind    branchKind
	bias    bool   // direction for biased sites
	loopLen int    // trip count for loop sites
	pattern []bool // repeating sequence for pattern sites
}

// direction advances the site's pattern machine, whose counter is
// *counter, and returns the outcome.
func (s *branchSite) direction(rng *xrand.Rand, c *drawCuts, counter *int) bool {
	switch s.kind {
	case brBiased:
		// Rare inversions keep the predictor's counters saturated but honest.
		if rng.Less(c.inversion) {
			return !s.bias
		}
		return s.bias
	case brLoop:
		*counter++
		if *counter >= s.loopLen {
			*counter = 0
			return false // loop exit: fall through
		}
		return true // back edge taken
	case brPattern:
		out := s.pattern[*counter]
		*counter = (*counter + 1) % len(s.pattern)
		return out
	default:
		return rng.Less(c.randBias)
	}
}

// replay advances the site's pattern machine past a recorded outcome,
// exactly as direction did when it returned taken.
func (s *branchSite) replay(taken bool, counter *int) {
	switch s.kind {
	case brLoop:
		if taken {
			*counter++
		} else {
			*counter = 0
		}
	case brPattern:
		*counter = (*counter + 1) % len(s.pattern)
	}
}

// guess returns a plausible direction, given the site's committed-path
// counter, without mutating state; used for wrong-path streams so they
// cannot perturb the committed-path machines.
func (s *branchSite) guess(rng *xrand.Rand, c *drawCuts, counter int) bool {
	switch s.kind {
	case brBiased:
		return s.bias
	case brLoop:
		return true
	case brPattern:
		return s.pattern[counter]
	default:
		return rng.Less(c.randBias)
	}
}

// drawCuts holds, as xrand cuts, every probability the generator tests a
// draw against, so the per-instruction paths compare integers instead of
// converting each draw to a float. Built once per generator; each cut
// consumes and decides exactly as the Float64 comparison it replaces.
type drawCuts struct {
	inversion    xrand.Cut // a biased branch goes against its bias: 0.03
	randBias     xrand.Cut // a data-dependent branch is taken
	loneReread   xrand.Cut // an aliased load computes its own address: 0.0005
	shallow      xrand.Cut // an integer ALU op is address arithmetic: 0.45
	chainALU     xrand.Cut // address arithmetic chains on the previous one: 0.5
	pointerChase xrand.Cut
	addrReady    xrand.Cut
	storeReady   xrand.Cut
	storePtr     xrand.Cut
	fp           xrand.Cut
	alias        xrand.Cut
	sameStore    xrand.Cut // an aliased load re-reads within the store: 0.85
	sameStream   xrand.Cut // a sequential access stays on its stream: 0.85
	seq          xrand.Cut
	seqStack     xrand.Cut // sequential or stack

	// Geometric dependence distances: branch sources and recent loads
	// (mean 2), address chains (1.2), and the profile's DepDistMean.
	dist2, dist12, distDep geom
}

func newDrawCuts(p Profile) drawCuts {
	return drawCuts{
		inversion:    xrand.CutAt(0.03),
		randBias:     xrand.CutAt(p.Branch.RandBias),
		loneReread:   xrand.CutAt(0.0005),
		shallow:      xrand.CutAt(0.45),
		chainALU:     xrand.CutAt(0.5),
		pointerChase: xrand.CutAt(p.PointerChase),
		addrReady:    xrand.CutAt(p.AddrReadyFrac),
		storeReady:   xrand.CutAt(p.StoreAddrReadyFrac),
		storePtr:     xrand.CutAt(p.StorePtrFrac),
		fp:           xrand.CutAt(p.FPFrac),
		alias:        xrand.CutAt(p.AliasRate),
		sameStore:    xrand.CutAt(0.85),
		sameStream:   xrand.CutAt(0.85),
		seq:          xrand.CutAt(p.SeqFrac),
		seqStack:     xrand.CutAt(p.SeqFrac + p.StackFrac),
		dist2:        newGeom(2.0),
		dist12:       newGeom(1.2),
		distDep:      newGeom(p.DepDistMean),
	}
}

// block is one basic block of the static CFG: fixed op classes per slot,
// a terminating branch site, and its two successors.
type block struct {
	pc       uint64 // address of the first instruction
	ops      []isa.Op
	sizes    []uint8 // access size per memory slot (0 for non-memory)
	site     branchSite
	taken    int // successor block when the branch is taken
	fallthru int
}

func (b *block) branchPC() uint64 { return b.pc + uint64(len(b.ops))*4 }

// Generator produces the committed-path instruction stream for a profile.
// It is deterministic: two generators built from the same profile yield
// identical streams. Not safe for concurrent use.
type Generator struct {
	prof      Profile
	blocks    []block // the profile's CFG, shared and immutable
	pcToBlock map[uint64]int
	counters  []int // each block's branch-site counter, on the committed path

	rng  *xrand.Rand
	cut  drawCuts
	seq  uint64
	cur  int // current block
	slot int

	// Wrong-path stream reuse (see EnableWrongPathReuse). wpRng is nil
	// until the first reused stream; wpSpare keeps the rand state a Reset
	// detached, so the next stream reseeds it instead of allocating while
	// the reset generator still checkpoints as one that never had a
	// stream.
	wpReuse   bool
	wpRng     *xrand.Rand
	wpSpare   *xrand.Rand
	wpScratch WrongStream

	// Register dataflow state.
	destRing     [64]int16 // recent destination registers, newest last
	destRingLen  int
	aluRing      [16]int16 // recent shallow integer-ALU destinations
	aluRingLen   int
	loadRing     [8]int16 // recent load destinations (for dependent store addresses)
	loadRingLen  int
	fpRing       [32]int16
	fpRingLen    int
	nextIntDest  int16
	nextFPDest   int16
	lastLoadDest int16
	baseRegTimer int

	// Address state.
	regionBytes  uint64
	seqPtrs      []uint64
	seqStrides   []uint64
	lastStream   int
	storeRing    [64]memRef // recent committed-path store addresses
	storeHead    int
	lastLoadAddr uint64
}

type memRef struct {
	addr uint64
	size uint8
	src1 int16 // the store's address operand register
}

// NewGenerator builds the static CFG for the profile and returns a
// generator positioned at the first block. It panics on an invalid
// profile: profiles are static experiment inputs, so this is a programming
// error, not a runtime condition.
func NewGenerator(p Profile) *Generator {
	g := new(Generator)
	g.Reset(p)
	return g
}

// Reset makes g exactly the generator NewGenerator(p) would build, with
// wrong-path reuse off. The site counters, the stream tables and both
// rand states are reused whenever their capacity covers the new profile,
// so a pooled generator is rebuilt without allocating. Like NewGenerator,
// it panics on an invalid profile.
func (g *Generator) Reset(p Profile) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	spare := g.wpSpare
	if g.wpRng != nil {
		spare = g.wpRng
	}
	*g = Generator{
		prof:         p,
		counters:     g.counters[:0],
		rng:          g.rng,
		wpSpare:      spare,
		cut:          newDrawCuts(p),
		nextIntDest:  8,
		nextFPDest:   isa.NumIntRegs + 8,
		lastLoadDest: 8,
		regionBytes:  uint64(p.WorkingSetKB) * 1024,
		seqPtrs:      g.seqPtrs[:0],
		seqStrides:   g.seqStrides[:0],
	}
	if g.rng == nil {
		g.rng = new(xrand.Rand)
	}
	g.rng.Seed(p.Seed)
	// The static CFG is a pure function of the profile, built from its own
	// RNG (seeded p.Seed^0x5eed_b10c, never touching g.rng), so it is
	// cached per profile, and its blocks and pcToBlock map are shared by
	// every generator of the profile: nothing in them changes after the
	// build. What the committed path advances, the sites' counters, is
	// each generator's own. The cache is unbounded but keyed by Profile
	// values, a small fixed catalog in practice.
	if tpl, ok := cfgCache.Load(p); ok {
		t := tpl.(*cfgTemplate)
		g.blocks, g.pcToBlock = t.blocks, t.pcToBlock
	} else {
		g.pcToBlock = make(map[uint64]int)
		g.buildCFG()
		cfgCache.Store(p, &cfgTemplate{blocks: g.blocks, pcToBlock: g.pcToBlock})
	}
	g.counters = slices.Grow(g.counters, len(g.blocks))[:len(g.blocks)]
	clear(g.counters)
	// Sequential streams: a handful of array walks at quad-word or
	// cache-line stride, spread across the region.
	nStreams := 6
	for i := 0; i < nStreams; i++ {
		g.seqPtrs = append(g.seqPtrs, dataBase+uint64(g.rng.Int63n(int64(g.regionBytes))))
		stride := uint64(8)
		if i%3 == 2 {
			stride = 64
		}
		g.seqStrides = append(g.seqStrides, stride)
	}
	for i := range g.storeRing {
		g.storeRing[i] = memRef{addr: dataBase, size: 8, src1: 1}
	}
}

// cfgTemplate is the immutable product of buildCFG for one profile: the
// blocks and the branch-PC lookup map.
type cfgTemplate struct {
	blocks    []block
	pcToBlock map[uint64]int
}

// cfgCache maps Profile values to their built CFG; see NewGenerator.
var cfgCache sync.Map

// buildCFG lays out the static blocks, assigns per-slot op classes from the
// mix, and wires branch sites and successors.
func (g *Generator) buildCFG() {
	p := g.prof
	rng := xrand.New(p.Seed ^ 0x5eed_b10c)
	g.blocks = make([]block, p.Blocks)
	pc := uint64(codeBase)
	for i := range g.blocks {
		n := p.BlockMin + rng.Intn(p.BlockMax-p.BlockMin+1)
		b := &g.blocks[i]
		b.pc = pc
		b.ops = make([]isa.Op, n-1) // last slot is the branch
		b.sizes = make([]uint8, n-1)
		for s := range b.ops {
			b.ops[s] = g.sampleOpClass(rng)
			if b.ops[s].IsMem() {
				b.sizes[s] = g.sampleSize(rng)
			}
		}
		b.site = g.sampleBranchSite(rng)
		pc += uint64(n) * 4
	}
	// Successors: fall-through to the next block; taken target is a jump to
	// a random block (biased to nearby, loop sites target themselves to
	// model back edges).
	for i := range g.blocks {
		b := &g.blocks[i]
		b.fallthru = (i + 1) % len(g.blocks)
		if b.site.kind == brLoop {
			b.taken = i // tight loop back edge
		} else {
			// Mostly short forward/backward hops, occasionally far.
			hop := rng.Intn(16) - 8
			if rng.Intn(8) == 0 {
				hop = rng.Intn(len(g.blocks))
			}
			t := (i + hop + len(g.blocks)) % len(g.blocks)
			if t == b.fallthru {
				t = (t + 1) % len(g.blocks)
			}
			b.taken = t
		}
		g.pcToBlock[b.branchPC()] = i
	}
}

func (g *Generator) sampleOpClass(rng *xrand.Rand) isa.Op {
	p := g.prof
	r := rng.Float64()
	switch {
	case r < p.LoadFrac:
		return isa.OpLoad
	case r < p.LoadFrac+p.StoreFrac:
		return isa.OpStore
	}
	// Compute op.
	fp := rng.Float64() < p.FPFrac
	long := rng.Float64() < p.LongLatFrac
	switch {
	case fp && long:
		if rng.Intn(4) == 0 {
			return isa.OpFDiv
		}
		return isa.OpFMul
	case fp:
		return isa.OpFAlu
	case long:
		if rng.Intn(6) == 0 {
			return isa.OpIDiv
		}
		return isa.OpIMul
	default:
		return isa.OpIAlu
	}
}

func (g *Generator) sampleSize(rng *xrand.Rand) uint8 {
	w := g.prof.SizeW
	total := w[0] + w[1] + w[2] + w[3]
	r := rng.Float64() * total
	switch {
	case r < w[0]:
		return 1
	case r < w[0]+w[1]:
		return 2
	case r < w[0]+w[1]+w[2]:
		return 4
	default:
		return 8
	}
}

func (g *Generator) sampleBranchSite(rng *xrand.Rand) branchSite {
	p := g.prof.Branch
	r := rng.Float64()
	switch {
	case r < p.BiasedFrac:
		return branchSite{kind: brBiased, bias: rng.Intn(2) == 0}
	case r < p.BiasedFrac+p.LoopFrac:
		span := p.LoopMax - p.LoopMin + 1
		return branchSite{kind: brLoop, loopLen: p.LoopMin + rng.Intn(span)}
	case r < p.BiasedFrac+p.LoopFrac+p.PatternFrac:
		n := 3 + rng.Intn(6)
		pat := make([]bool, n)
		for i := range pat {
			pat[i] = rng.Intn(2) == 0
		}
		return branchSite{kind: brPattern, pattern: pat}
	default:
		return branchSite{kind: brRandom}
	}
}

// NextBatch fills dst with the next committed-path instructions and
// returns how many were written. It stops after emitting a branch so a
// batching front end never pre-generates across a block boundary: the
// wrong-path streams spawned at mispredicted branches read the
// generator's register and address state lazily, and that state must not
// run ahead of the last instruction the machine has fetched.
func (g *Generator) NextBatch(dst []isa.Inst) int {
	for i := range dst {
		in := &dst[i]
		g.next(in)
		if in.Op == isa.OpBranch {
			return i + 1
		}
	}
	return len(dst)
}

// Next returns the next committed-path instruction.
func (g *Generator) Next() isa.Inst {
	var in isa.Inst
	g.next(&in)
	return in
}

// next writes every field of the next committed-path instruction into in.
func (g *Generator) next(in *isa.Inst) {
	b := &g.blocks[g.cur]
	if g.slot >= len(b.ops) {
		// Branch slot.
		taken := b.site.direction(g.rng, &g.cut, &g.counters[g.cur])
		*in = isa.Inst{
			Seq:    g.seq,
			PC:     b.branchPC(),
			Op:     isa.OpBranch,
			Dest:   isa.RegNone,
			Src1:   g.recentIntReg(g.cut.dist2),
			Src2:   isa.RegNone,
			Taken:  taken,
			Target: g.blocks[b.taken].pc,
		}
		g.seq++
		if taken {
			g.cur = b.taken
		} else {
			g.cur = b.fallthru
		}
		g.slot = 0
		return
	}
	*in = isa.Inst{
		Seq:  g.seq,
		PC:   b.pc + uint64(g.slot)*4,
		Op:   b.ops[g.slot],
		Dest: isa.RegNone,
		Src1: isa.RegNone,
		Src2: isa.RegNone,
		Size: b.sizes[g.slot],
	}
	g.seq++
	g.slot++
	g.fillDynamic(in)
}

// fillDynamic draws the registers and address of a non-branch instruction
// whose static fields are set, and advances the generator's register and
// address state past it.
func (g *Generator) fillDynamic(in *isa.Inst) {
	rng, c := g.rng, &g.cut
	switch in.Op {
	case isa.OpLoad:
		var aliased bool
		var aliasSrc int16
		in.Addr, in.Size, aliased, aliasSrc = g.loadAddr(in.Size)
		switch {
		case aliased && rng.Less(c.loneReread):
			// A tiny fraction of re-reads compute their address
			// independently and can race ahead of the store — the source
			// of the paper's "few per million" genuine violations.
			in.Src1 = int16(1 + rng.Intn(3))
		case aliased:
			// A re-read of freshly written data reuses the store's address
			// register, so in the common case it cannot issue before the
			// store resolves.
			in.Src1 = aliasSrc
		default:
			in.Src1 = g.addrReg(true)
		}
		in.Dest = g.allocDest(false)
		g.lastLoadDest = in.Dest
		g.lastLoadAddr = in.Addr
		g.loadRing[g.loadRingLen%len(g.loadRing)] = in.Dest
		g.loadRingLen++
	case isa.OpStore:
		in.Addr = g.commonAddr(in.Size)
		in.Src1 = g.addrReg(false)
		in.Src2 = g.recentAnyReg()
		g.pushStore(in.Addr, in.Size, in.Src1)
	default:
		fp := in.Op.IsFP()
		in.Dest = g.allocDest(fp)
		if in.Op == isa.OpIAlu && rng.Less(c.shallow) {
			// Address arithmetic: induction updates and base+offset
			// computes. Half chain on the previous address compute (i =
			// i+1 style serial updates), bounding chain depth around two,
			// so stores hanging off them resolve a few cycles after
			// dispatch. Only these feed the address ring: real address
			// chains do not hang off cache-missing data computation.
			if g.aluRingLen > 0 && rng.Less(c.chainALU) {
				in.Src1 = g.aluRing[(g.aluRingLen-1)%len(g.aluRing)]
			} else {
				in.Src1 = int16(1 + rng.Intn(3))
			}
			in.Src2 = int16(1 + rng.Intn(3))
			g.aluRing[g.aluRingLen%len(g.aluRing)] = in.Dest
			g.aluRingLen++
		} else {
			in.Src1 = g.recentReg(fp)
			in.Src2 = g.recentReg(fp)
		}
	}
}

// addrReg picks the address operand register. Loads mostly use stale base
// pointers (ready at dispatch) so they can issue early; pointer-chasing
// loads depend on the previous load. Stores mostly use a short integer-ALU
// chain (an address computation a few instructions back), so they resolve
// a handful of cycles after dispatch — slightly behind the loads racing
// past them, which is exactly the partial ordering YLA filtering exploits.
// Store addresses never hang off load-fed chains: that heavy tail would
// open enormous checking windows the paper's workloads do not show.
func (g *Generator) addrReg(isLoad bool) int16 {
	rng, c := g.rng, &g.cut
	if isLoad {
		if rng.Less(c.pointerChase) {
			return g.lastLoadDest
		}
		if rng.Less(c.addrReady) {
			return int16(1 + rng.Intn(3)) // base registers r1..r3
		}
		return g.recentALUReg()
	}
	if rng.Less(c.storeReady) {
		return int16(1 + rng.Intn(3))
	}
	// Late store addresses split two ways: most follow a short address-
	// arithmetic chain (a couple of cycles of lag — enough for a handful
	// of younger loads to slip past, which address banking then filters),
	// and a minority are pointer-dependent (st [ptr->field]) — known only
	// after a nearby load completes, with a long tail on cache misses.
	if !rng.Less(c.storePtr) {
		return g.recentALUReg()
	}
	return g.recentLoadReg()
}

// recentLoadReg returns the destination of a recent load.
func (g *Generator) recentLoadReg() int16 {
	if g.loadRingLen == 0 {
		return 1
	}
	d := g.cut.dist2.draw(g.rng)
	if d > g.loadRingLen {
		d = g.loadRingLen
	}
	if d > len(g.loadRing) {
		d = len(g.loadRing)
	}
	return g.loadRing[(g.loadRingLen-d)%len(g.loadRing)]
}

// recentALUReg returns the destination of an integer ALU operation about
// 1.2 ALU ops back; falls back to a base register before any ALU op has
// been generated.
func (g *Generator) recentALUReg() int16 {
	if g.aluRingLen == 0 {
		return 1
	}
	d := g.cut.dist12.draw(g.rng)
	if d > g.aluRingLen {
		d = g.aluRingLen
	}
	if d > len(g.aluRing) {
		d = len(g.aluRing)
	}
	return g.aluRing[(g.aluRingLen-d)%len(g.aluRing)]
}

// allocDest cycles through the destination register pools, periodically
// rewriting a base register to keep its producer fresh in the stream.
func (g *Generator) allocDest(fp bool) int16 {
	if !fp {
		g.baseRegTimer++
		if g.baseRegTimer >= 251 { // prime so it drifts across blocks
			g.baseRegTimer = 0
			d := int16(1 + g.rng.Intn(3))
			g.pushDest(d, false)
			return d
		}
	}
	var d int16
	if fp {
		d = g.nextFPDest
		g.nextFPDest++
		if g.nextFPDest >= isa.NumRegs {
			g.nextFPDest = isa.NumIntRegs + 8
		}
	} else {
		d = g.nextIntDest
		g.nextIntDest++
		if g.nextIntDest >= isa.NumIntRegs {
			g.nextIntDest = 8
		}
	}
	g.pushDest(d, fp)
	return d
}

func (g *Generator) pushDest(d int16, fp bool) {
	if fp {
		g.fpRing[g.fpRingLen%len(g.fpRing)] = d
		g.fpRingLen++
		return
	}
	g.destRing[g.destRingLen%len(g.destRing)] = d
	g.destRingLen++
}

// geom draws geometric dependence distances with one mean, capped at 48:
// each step past 1 takes a draw above 1/mean. A mean ≤ 1 always yields 1
// and draws nothing.
type geom struct {
	stop  xrand.Cut // CutAbove(1/mean)
	fixed bool      // mean ≤ 1
}

func newGeom(mean float64) geom {
	if mean <= 1 {
		return geom{fixed: true}
	}
	return geom{stop: xrand.CutAbove(1.0 / mean)}
}

func (gd geom) draw(rng *xrand.Rand) int {
	if gd.fixed {
		return 1
	}
	d := 1
	for !rng.Less(gd.stop) && d < 48 {
		d++
	}
	return d
}

// recentIntReg returns an integer register written a distance drawn from
// dist instructions ago.
func (g *Generator) recentIntReg(dist geom) int16 {
	n := g.destRingLen
	if n == 0 {
		return 1
	}
	d := dist.draw(g.rng)
	if d > n {
		d = n
	}
	if d > len(g.destRing) {
		d = len(g.destRing)
	}
	return g.destRing[(n-d)%len(g.destRing)]
}

func (g *Generator) recentReg(fp bool) int16 {
	if fp && g.fpRingLen > 0 {
		d := g.cut.distDep.draw(g.rng)
		if d > g.fpRingLen {
			d = g.fpRingLen
		}
		if d > len(g.fpRing) {
			d = len(g.fpRing)
		}
		return g.fpRing[(g.fpRingLen-d)%len(g.fpRing)]
	}
	return g.recentIntReg(g.cut.distDep)
}

func (g *Generator) recentAnyReg() int16 {
	if g.prof.FPFrac > 0 && g.rng.Less(g.cut.fp) && g.fpRingLen > 0 {
		return g.recentReg(true)
	}
	return g.recentIntReg(g.cut.distDep)
}

func (g *Generator) pushStore(addr uint64, size uint8, src1 int16) {
	g.storeRing[g.storeHead] = memRef{addr: addr, size: size, src1: src1}
	g.storeHead = (g.storeHead + 1) % len(g.storeRing)
}

// storeBack returns the store reference `back` stores ago.
func (g *Generator) storeBack(back int) memRef {
	if back > len(g.storeRing) {
		back = len(g.storeRing)
	}
	idx := (g.storeHead - back + len(g.storeRing)) % len(g.storeRing)
	return g.storeRing[idx]
}

func align(addr uint64, size uint8) uint64 { return addr - addr%uint64(size) }

// loadAddr draws a load address from the profile's mixture of streams. It
// returns the (possibly narrowed) access size, whether the load aliases a
// recent store, and that store's address operand register.
func (g *Generator) loadAddr(size uint8) (uint64, uint8, bool, int16) {
	rng, c := g.rng, &g.cut
	// Aliasing with a recent store takes priority: this is what creates
	// forwarding and the rare genuine order violations.
	if rng.Less(c.alias) {
		back := 1 + rng.Intn(g.prof.AliasWindow)
		ref := g.storeBack(back)
		src := ref.src1
		if rng.Less(c.sameStore) || ref.size == 8 {
			// Exact or contained re-read: the SQ can forward this.
			if size > ref.size {
				size = ref.size
			}
			return align(ref.addr, size), size, true, src
		}
		// Partial match: the load is wider than the store and covers it,
		// so the SQ cannot supply all bytes ("partial memory matches").
		return align(ref.addr, 8), 8, true, src
	}
	if rng.Less(c.pointerChase) && g.lastLoadAddr != 0 {
		// Dependent address: a scramble of the previous load's address,
		// staying inside the working set.
		h := g.lastLoadAddr*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		return align(dataBase+h%g.regionBytes, size), size, false, 0
	}
	return g.commonAddr(size), size, false, 0
}

// commonAddr draws from the sequential / stack / random mixture and
// advances the sequential stream it walks.
// Sequential accesses are bursty: consecutive memory operations often walk
// the same stream (a[i], a[i+1], ... within one loop iteration), so loads
// frequently touch the cache line a just-dispatched store wrote — adjacent
// quad words, same line. Quad-word-interleaved YLA banks tell these apart;
// line-interleaved banks cannot, which is the paper's Figure 2 contrast.
func (g *Generator) commonAddr(size uint8) uint64 {
	rng, c := g.rng, &g.cut
	r := rng.Draw()
	switch {
	case r < c.seq:
		i := g.lastStream
		if !rng.Less(c.sameStream) {
			i = rng.Intn(len(g.seqPtrs))
		}
		a := g.seqPtrs[i]
		g.stepStream(i)
		return align(a, size)
	case r < c.seqStack:
		return align(stackBase+uint64(rng.Intn(stackSize)), size)
	default:
		return align(dataBase+uint64(rng.Int63n(int64(g.regionBytes))), size)
	}
}

// stepStream makes stream i the current one and advances its pointer past
// one access, wrapping at the end of the region.
func (g *Generator) stepStream(i int) {
	g.lastStream = i
	g.seqPtrs[i] += g.seqStrides[i]
	if g.seqPtrs[i] >= dataBase+g.regionBytes {
		g.seqPtrs[i] = dataBase
	}
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// EntryPC returns the address of the program's first instruction.
func (g *Generator) EntryPC() uint64 { return g.blocks[0].pc }

// WrongStream yields plausible wrong-path instructions after a mispredicted
// branch. It walks the real static CFG from the not-taken successor, so
// wrong-path fetch touches realistic I-cache lines and issues loads with
// realistic addresses — which is what corrupts YLA registers in the paper —
// but it never mutates the committed-path generator state.
type WrongStream struct {
	g    *Generator
	rng  *xrand.Rand
	cur  int
	slot int
}

// EnableWrongPathReuse makes subsequent WrongPath calls hand out one
// reused stream (and one reused, reseeded rand state) instead of
// allocating fresh ones. The produced instruction sequences are identical
// — reseeding a source is exactly the NewSource initialization — but each
// WrongPath call invalidates the previously returned stream. The pipeline
// front end follows at most one wrong path at a time, so it opts in and
// saves a 5KB allocation per misprediction; callers that interleave
// several live streams (tests) must leave reuse off.
func (g *Generator) EnableWrongPathReuse() { g.wpReuse = true }

// WrongPath builds a wrong-path stream for the branch at branchPC. taken
// is the (wrong) direction fetch is following; salt decorrelates repeated
// episodes at the same branch. Returns nil if branchPC is unknown (the
// caller then simply stalls fetch, as a real front end would on a BTB miss).
func (g *Generator) WrongPath(branchPC uint64, taken bool, salt uint64) *WrongStream {
	bi, ok := g.pcToBlock[branchPC]
	if !ok {
		return nil
	}
	b := &g.blocks[bi]
	next := b.fallthru
	if taken {
		next = b.taken
	}
	seed := int64(branchPC) ^ int64(salt)*0x9e37 ^ g.prof.Seed
	if !g.wpReuse {
		return &WrongStream{g: g, rng: xrand.New(seed), cur: next}
	}
	g.attachWP().Seed(seed)
	g.wpScratch = WrongStream{g: g, rng: g.wpRng, cur: next}
	return &g.wpScratch
}

// attachWP returns the reused wrong-path rand state, taking the spare (or
// a new one) if none is attached. Its contents are for the caller to set.
func (g *Generator) attachWP() *xrand.Rand {
	if g.wpRng == nil {
		g.wpRng, g.wpSpare = g.wpSpare, nil
		if g.wpRng == nil {
			g.wpRng = new(xrand.Rand)
		}
	}
	return g.wpRng
}

// Next returns the next wrong-path instruction. Branch direction fields on
// wrong-path branches carry the pattern machine's best guess so the core's
// predictor rarely "mispredicts" inside the wrong path (nested recoveries
// are a second-order effect the simulator does not model).
func (w *WrongStream) Next() isa.Inst {
	b := &w.g.blocks[w.cur]
	if w.slot >= len(b.ops) {
		taken := b.site.guess(w.rng, &w.g.cut, w.g.counters[w.cur])
		in := isa.Inst{
			PC:     b.branchPC(),
			Op:     isa.OpBranch,
			Dest:   isa.RegNone,
			Src1:   int16(8 + w.rng.Intn(8)),
			Src2:   isa.RegNone,
			Taken:  taken,
			Target: w.g.blocks[b.taken].pc,
		}
		if taken {
			w.cur = b.taken
		} else {
			w.cur = b.fallthru
		}
		w.slot = 0
		return in
	}
	op := b.ops[w.slot]
	pc := b.pc + uint64(w.slot)*4
	size := b.sizes[w.slot]
	w.slot++
	// Wrong-path dynamic fields come from the stream's private RNG; address
	// streams are sampled without advancing committed-path pointers.
	in := isa.Inst{PC: pc, Op: op, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Size: size}
	switch op {
	case isa.OpLoad, isa.OpStore:
		in.Addr = w.g.wrongPathAddr(size, w.rng)
		in.Src1 = int16(1 + w.rng.Intn(3))
		if op == isa.OpLoad {
			in.Dest = int16(8 + w.rng.Intn(24))
		} else {
			in.Src2 = int16(8 + w.rng.Intn(24))
		}
	default:
		if op.IsFP() {
			in.Dest = int16(isa.NumIntRegs + 8 + w.rng.Intn(24))
		} else {
			in.Dest = int16(8 + w.rng.Intn(24))
		}
		in.Src1 = int16(8 + w.rng.Intn(24))
		in.Src2 = int16(8 + w.rng.Intn(24))
	}
	return in
}

// wrongPathAddr samples addresses from the same regions as the committed
// path (streams are read, not advanced).
func (g *Generator) wrongPathAddr(size uint8, rng *xrand.Rand) uint64 {
	r := rng.Draw()
	switch {
	case r < g.cut.seq:
		i := rng.Intn(len(g.seqPtrs))
		return align(g.seqPtrs[i]+g.seqStrides[i], size)
	case r < g.cut.seqStack:
		return align(stackBase+uint64(rng.Intn(stackSize)), size)
	default:
		return align(dataBase+uint64(rng.Int63n(int64(g.regionBytes))), size)
	}
}
