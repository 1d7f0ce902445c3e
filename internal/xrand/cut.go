package xrand

// Cut is an integer threshold over the draws behind Float64. Float64 maps
// a 63-bit draw v to float64(v)/2⁶³, which never decreases as v grows, so
// comparing a Float64 result against a fixed probability p is the same as
// comparing v against an integer found once. Hot paths that test many
// draws against a few fixed probabilities precompute the cuts and skip the
// per-draw conversion and division.
type Cut uint64

// floatOne is the first Int63 value that Float64 maps to 1.0 and therefore
// draws again: 2⁶³−512 lies halfway between the float64 neighbours
// 2⁶³−1024 and 2⁶³ and rounds to the even one, 2⁶³.
const floatOne = 1<<63 - 512

// CutAt returns the cut for "Float64() < p": Less(CutAt(p)) consumes the
// same draws as Float64 and reports Float64() < p, for every p.
func CutAt(p float64) Cut {
	return firstDraw(func(f float64) bool { return !(f < p) })
}

// CutAbove returns the cut for "Float64() > p": !Less(CutAbove(p)) reports
// Float64() > p, for every p.
func CutAbove(p float64) Cut {
	return firstDraw(func(f float64) bool { return f > p })
}

// firstDraw returns the smallest draw in [0, floatOne) whose Float64 image
// satisfies pred, or floatOne if none does. pred must be monotone: once
// true, true for every larger image. The image is computed exactly as
// Float64 computes it, so the cut is exact by construction.
func firstDraw(pred func(float64) bool) Cut {
	lo, hi := uint64(0), uint64(floatOne)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(float64(int64(mid)) / (1 << 63)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return Cut(lo)
}

// Draw consumes exactly the draws Float64 would and returns the accepted
// one in Cut units: Float64() < p exactly when Draw() < CutAt(p). One
// Draw can be compared against several cuts, as one Float64 result can be
// compared against several probabilities.
func (r *Rand) Draw() Cut {
again:
	v := r.Uint64() & rngMask // Int63, spelled out to stay inlinable
	if v >= floatOne {
		goto again // Float64 would round this draw to 1.0 and draw again
	}
	return Cut(v)
}

// Less draws as Float64 does and reports whether the draw falls below c.
func (r *Rand) Less(c Cut) bool { return r.Draw() < c }
