package xrand_test

import (
	"math"
	"testing"

	"dmdc/internal/trace"
	"dmdc/internal/xrand"
)

// cutProbabilities lists every probability the trace generator compares a
// draw against, the constants, each profile's fractions and the partial
// sums it tests a single draw against, and 1/mean for its geometric
// distances, each with its float64 neighbours.
func cutProbabilities() []float64 {
	ps := []float64{0, 1, 0.03, 0.0005, 0.45, 0.5, 0.85}
	for _, mean := range []float64{1.2, 2, 4.5, 6} {
		ps = append(ps, 1/mean)
	}
	for _, p := range trace.Profiles() {
		b := p.Branch
		ps = append(ps,
			p.LoadFrac, p.StoreFrac, p.LoadFrac+p.StoreFrac, p.FPFrac, p.LongLatFrac,
			p.SeqFrac, p.StackFrac, p.SeqFrac+p.StackFrac, p.PointerChase, p.AliasRate,
			p.AddrReadyFrac, p.StoreAddrReadyFrac, p.StorePtrFrac, 1/p.DepDistMean,
			b.BiasedFrac, b.BiasedFrac+b.LoopFrac, b.BiasedFrac+b.LoopFrac+b.PatternFrac, b.RandBias)
	}
	out := make([]float64, 0, 3*len(ps))
	for _, p := range ps {
		out = append(out, math.Nextafter(p, -1), p, math.Nextafter(p, 2))
	}
	return out
}

var cutSeeds = []int64{0, 1, -1, 2, 42, 89482311, 1<<31 - 1, 1<<62 + 12345, -987654321012345, 0x5eed_b10c}

// TestCutDifferential checks, draw for draw over many seeds, that Less on
// a cut consumes the same draws as Float64 and agrees with the float
// comparison it replaces.
func TestCutDifferential(t *testing.T) {
	for _, p := range cutProbabilities() {
		at, above := xrand.CutAt(p), xrand.CutAbove(p)
		for _, seed := range cutSeeds {
			ref, got := xrand.New(seed), xrand.New(seed)
			for i := 0; i < 1000; i++ {
				if g, w := got.Less(at), ref.Float64() < p; g != w {
					t.Fatalf("p=%v seed %d draw %d: Less(CutAt) = %v, Float64() < p = %v", p, seed, i, g, w)
				}
				if g, w := !got.Less(above), ref.Float64() > p; g != w {
					t.Fatalf("p=%v seed %d draw %d: !Less(CutAbove) = %v, Float64() > p = %v", p, seed, i, g, w)
				}
			}
		}
	}
}

// forced returns a generator whose next Int63 draws are vs, in order,
// followed by the ordinary stream of seed 1. Uint64 steps both cursors
// back by one and returns vec[feed]+vec[tap], so zeroing the tap words
// makes the feed words come out verbatim.
func forced(t *testing.T, vs ...int64) *xrand.Rand {
	t.Helper()
	r := xrand.New(1)
	s := r.State()
	for i, v := range vs {
		s.Vec[s.Feed-1-i] = v
		s.Vec[len(s.Vec)-1-i] = 0 // the tap cursor starts at 0 and wraps
	}
	if err := r.SetState(s); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCutBoundaries forces draws on both sides of every cut, where a
// random stream almost never lands, and checks Less against Float64.
func TestCutBoundaries(t *testing.T) {
	for _, p := range cutProbabilities() {
		for _, c := range []xrand.Cut{xrand.CutAt(p), xrand.CutAbove(p)} {
			for d := int64(-2); d <= 1; d++ {
				v := int64(c) + d
				if v < 0 || v >= 1<<63-512 {
					continue
				}
				f := forced(t, v).Float64()
				if g, w := forced(t, v).Less(xrand.CutAt(p)), f < p; g != w {
					t.Errorf("p=%v draw %d: Less(CutAt) = %v, Float64() = %v < p = %v", p, v, g, f, w)
				}
				if g, w := !forced(t, v).Less(xrand.CutAbove(p)), f > p; g != w {
					t.Errorf("p=%v draw %d: !Less(CutAbove) = %v, Float64() = %v > p = %v", p, v, g, f, w)
				}
			}
		}
	}
}

// TestFloatOneBoundary pins 2⁶³−512 as the first Int63 value Float64 maps
// to 1.0, and checks that Draw discards such a draw and takes the next one
// exactly as Float64 does.
func TestFloatOneBoundary(t *testing.T) {
	const one = 1<<63 - 512
	if f := float64(int64(one)) / (1 << 63); f != 1 {
		t.Fatalf("float64(2^63-512)/2^63 = %v, want 1", f)
	}
	if f := float64(int64(one-1)) / (1 << 63); f >= 1 {
		t.Fatalf("float64(2^63-513)/2^63 = %v, want < 1", f)
	}

	const next = 123456789 << 20
	if v := forced(t, one, next).Int63(); v != one {
		t.Fatalf("forced first draw = %d, want %d", v, int64(one))
	}
	ref, got := forced(t, one, math.MaxInt64, next), forced(t, one, math.MaxInt64, next)
	if f, want := ref.Float64(), float64(next)/(1<<63); f != want {
		t.Fatalf("Float64 over two draws that round to 1 = %v, want %v", f, want)
	}
	if d := got.Draw(); d != next {
		t.Fatalf("Draw over two draws that round to 1 = %d, want %d", d, int64(next))
	}
	for i := 0; i < 100; i++ {
		if g, w := got.Int63(), ref.Int63(); g != w {
			t.Fatalf("draw %d after the retry: Draw left %d, Float64 left %d", i, g, w)
		}
	}

	// One below the boundary is an ordinary draw for both.
	if d := forced(t, one-1).Draw(); d != one-1 {
		t.Fatalf("Draw(2^63-513) = %d, want it accepted", d)
	}
	if !forced(t, one-1).Less(xrand.CutAt(1)) || forced(t, one-1).Less(xrand.CutAt(math.Nextafter(1, 0))) {
		t.Fatal("the largest accepted draw must lie below 1 and not below 1-2^-53")
	}
}
