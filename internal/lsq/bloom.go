package lsq

// BloomFilter is a counting Bloom filter over the addresses of in-flight
// issued loads, in the style of Sethumadhavan et al. [18]: stores consult
// it before searching the LQ, and a zero bucket proves no issued load can
// match, so the search is filtered. The paper's Figure 3 uses the H0
// hashing function — an XOR fold of the address bits down to the index
// width — which is what Hash implements.
type BloomFilter struct {
	buckets []uint16
	hash    h0
}

// NewBloomFilter builds a filter with size buckets (power of two ≥ 2).
func NewBloomFilter(size int) *BloomFilter {
	if !pow2(size, 2) {
		panic("lsq: bloom filter size must be a power of two ≥ 2")
	}
	return &BloomFilter{buckets: make([]uint16, size), hash: newH0(size)}
}

// Size returns the number of buckets.
func (f *BloomFilter) Size() int { return len(f.buckets) }

// Hash returns addr's bucket under the H0 function.
func (f *BloomFilter) Hash(addr uint64) uint32 { return f.hash.index(addr) }

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
