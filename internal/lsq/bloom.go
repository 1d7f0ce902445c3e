package lsq

// BloomFilter is a counting Bloom filter over the addresses of in-flight
// issued loads, in the style of Sethumadhavan et al. [18]: stores consult
// it before searching the LQ, and a zero bucket proves no issued load can
// match, so the search is filtered. The paper's Figure 3 uses the H0
// hashing function — an XOR fold of the address bits down to the index
// width — which is what Hash implements.
type BloomFilter struct {
	buckets []uint16
	bits    uint
}

// NewBloomFilter builds a filter with size buckets (power of two ≥ 2).
func NewBloomFilter(size int) *BloomFilter {
	if size < 2 || size&(size-1) != 0 {
		panic("lsq: bloom filter size must be a power of two ≥ 2")
	}
	bits := uint(0)
	for s := size; s > 1; s >>= 1 {
		bits++
	}
	return &BloomFilter{buckets: make([]uint16, size), bits: bits}
}

// Size returns the number of buckets.
func (f *BloomFilter) Size() int { return len(f.buckets) }

// Hash implements the H0 function: successive XOR folding of the
// quad-word address into the index width.
func (f *BloomFilter) Hash(addr uint64) uint32 {
	v := addr >> QuadWordShift
	var h uint64
	for v != 0 {
		h ^= v
		v >>= f.bits
	}
	return uint32(h & uint64(len(f.buckets)-1))
}

// Insert records an issued load at addr.
func (f *BloomFilter) Insert(addr uint64) {
	f.buckets[f.Hash(addr)]++
}

// Remove erases a previously inserted load (at commit or squash).
func (f *BloomFilter) Remove(addr uint64) {
	h := f.Hash(addr)
	if f.buckets[h] > 0 {
		f.buckets[h]--
	}
}

// MayMatch reports whether any tracked load may alias addr; false means
// the LQ search is provably unnecessary.
func (f *BloomFilter) MayMatch(addr uint64) bool {
	return f.buckets[f.Hash(addr)] != 0
}
