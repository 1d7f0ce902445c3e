package lsq

// YLAFile is a bank of Youngest-issued-Load-Age registers. Each register
// holds the age of the youngest load that has issued to its address bank
// (zero meaning none). Banks are selected by address bits above the
// interleaving granularity: shift 3 gives the paper's quad-word
// interleaving, shift 6 its cache-line interleaving.
type YLAFile struct {
	regs  []uint64
	shift uint
	mask  uint64
}

// Interleaving granularities (address shift amounts).
const (
	// QuadWordShift interleaves YLA banks by 8-byte quad words.
	QuadWordShift = 3
	// CacheLineShift interleaves YLA banks by 64-byte cache lines, the
	// granularity of external invalidations.
	CacheLineShift = 6
)

// NewYLAFile builds a file of n registers (n must be a power of two ≥ 1)
// interleaved at the given shift. It panics on invalid n — register counts
// are static experiment parameters.
func NewYLAFile(n int, shift uint) *YLAFile {
	if !pow2(n, 1) {
		panic("lsq: YLA register count must be a power of two ≥ 1")
	}
	return &YLAFile{regs: make([]uint64, n), shift: shift, mask: uint64(n - 1)}
}

// Size returns the number of registers.
func (y *YLAFile) Size() int { return len(y.regs) }

func (y *YLAFile) bank(addr uint64) int { return int((addr >> y.shift) & y.mask) }

// Update records that a load of the given age issued to addr. Called at
// load execution time, including for wrong-path loads (which is exactly
// how YLA gets corrupted in the paper).
func (y *YLAFile) Update(addr, age uint64) {
	b := y.bank(addr)
	if age > y.regs[b] {
		y.regs[b] = age
	}
}

// SafeStore reports whether a store of the given age to addr can skip
// dependence checking: true when no younger load has issued to its bank
// (a YLA hit).
func (y *YLAFile) SafeStore(addr, age uint64) bool {
	return age > y.regs[y.bank(addr)]
}

// Age returns the bank content for addr: the age of the youngest issued
// load mapping there, or zero if none.
func (y *YLAFile) Age(addr uint64) uint64 { return y.regs[y.bank(addr)] }

// Clamp applies the paper's recovery remedy: every register younger than
// the recovery point is reset to the recovery point's age.
func (y *YLAFile) Clamp(age uint64) {
	for i, v := range y.regs {
		if v > age {
			y.regs[i] = age
		}
	}
}
