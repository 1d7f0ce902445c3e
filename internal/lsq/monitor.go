package lsq

import (
	"fmt"
	"sort"

	"dmdc/internal/stats"
)

// filterCount counts a monitor's would-be LQ searches and how many of
// them its filter screens out.
type filterCount struct {
	searches uint64
	hits     uint64
}

// count records one would-be search, filtered when hit is true.
func (f *filterCount) count(hit bool) {
	f.searches++
	if hit {
		f.hits++
	}
}

// FilterRate returns the fraction of searches filtered.
func (f *filterCount) FilterRate() float64 {
	if f.searches == 0 {
		return 0
	}
	return float64(f.hits) / float64(f.searches)
}

// report writes "<name>_filter_rate" plus the raw counters.
func (f *filterCount) report(s *stats.Set, name string) {
	s.Put(name+"_filter_rate", f.FilterRate())
	s.Put(name+"_searches", float64(f.searches))
	s.Put(name+"_hits", float64(f.hits))
}

// YLAMonitor passively measures what fraction of LQ searches a YLA file of
// a given size and interleaving would filter on a baseline run. Several
// monitors with different geometries can observe one simulation, which is
// how Figure 2's sweep is produced from a single run per benchmark.
type YLAMonitor struct {
	BaseMonitor
	filterCount
	yla     *YLAFile
	noClamp bool
}

// NewYLAMonitor builds a monitor with n registers at the given shift.
func NewYLAMonitor(n int, shift uint) *YLAMonitor {
	return &YLAMonitor{yla: NewYLAFile(n, shift)}
}

// NewYLAMonitorNoClamp builds a monitor that skips the paper's recovery
// remedy (clamping YLA to the recovery age), so wrong-path pollution
// persists — the ablation that motivates the remedy in Section 3.
func NewYLAMonitorNoClamp(n int, shift uint) *YLAMonitor {
	return &YLAMonitor{yla: NewYLAFile(n, shift), noClamp: true}
}

// Name encodes geometry, e.g. "yla8_qw", "yla16_line", "yla8_qw_noclamp".
func (m *YLAMonitor) Name() string {
	kind := "qw"
	if m.yla.shift == CacheLineShift {
		kind = "line"
	}
	if m.noClamp {
		return fmt.Sprintf("yla%d_%s_noclamp", m.yla.Size(), kind)
	}
	return fmt.Sprintf("yla%d_%s", m.yla.Size(), kind)
}

// LoadIssue updates the registers (wrong-path loads included).
func (m *YLAMonitor) LoadIssue(op *MemOp) { m.yla.Update(op.Addr, op.Age) }

// StoreResolve counts a would-be LQ search and whether it filters.
func (m *YLAMonitor) StoreResolve(op *MemOp) {
	m.count(m.yla.SafeStore(op.Addr, op.Age))
}

// Recover applies the clamp remedy (unless ablated).
func (m *YLAMonitor) Recover(age uint64) {
	if !m.noClamp {
		m.yla.Clamp(age)
	}
}

// Report writes "<name>_filter_rate" plus raw counters.
func (m *YLAMonitor) Report(s *stats.Set) { m.report(s, m.Name()) }

// BloomMonitor measures the filtering rate of a Sethumadhavan-style
// counting Bloom filter of issued loads (Figure 3's comparison points).
type BloomMonitor struct {
	BaseMonitor
	filterCount
	bf      *BloomFilter
	tracked []trackedLoad // in-flight issued loads, age order
}

type trackedLoad struct {
	age  uint64
	addr uint64
}

// NewBloomMonitor builds a monitor with the given filter size.
func NewBloomMonitor(size int) *BloomMonitor {
	return &BloomMonitor{bf: NewBloomFilter(size)}
}

// Name encodes the filter size, e.g. "bf256".
func (m *BloomMonitor) Name() string { return fmt.Sprintf("bf%d", m.bf.Size()) }

// LoadIssue inserts the load into the filter.
func (m *BloomMonitor) LoadIssue(op *MemOp) {
	m.bf.Insert(op.Addr)
	m.tracked = append(m.tracked, trackedLoad{age: op.Age, addr: op.Addr})
}

// StoreResolve counts a would-be search and whether the filter screens it.
func (m *BloomMonitor) StoreResolve(op *MemOp) {
	m.count(!m.bf.MayMatch(op.Addr))
}

// StoreCommit drains tracked loads older than the committing store: their
// LQ entries would have been freed by now. (Loads leave the filter when
// they commit; store commit order gives a cheap, conservative proxy that
// keeps the monitor's occupancy realistic.)
func (m *BloomMonitor) StoreCommit(op *MemOp) {
	i := 0
	for i < len(m.tracked) && m.tracked[i].age < op.Age {
		m.bf.Remove(m.tracked[i].addr)
		i++
	}
	if i > 0 {
		m.tracked = m.tracked[:copy(m.tracked, m.tracked[i:])]
	}
}

// Squash removes squashed loads from the filter.
func (m *BloomMonitor) Squash(fromAge uint64) {
	cut := sort.Search(len(m.tracked), func(i int) bool { return m.tracked[i].age >= fromAge })
	for _, t := range m.tracked[cut:] {
		m.bf.Remove(t.addr)
	}
	m.tracked = m.tracked[:cut]
}

// Report writes "<name>_filter_rate" plus raw counters.
func (m *BloomMonitor) Report(s *stats.Set) { m.report(s, m.Name()) }

// StoreAgeMonitor measures the Section 3 aside: the fraction of loads that
// are older than the oldest in-flight store at issue time, and could hence
// skip the SQ search entirely with a single store-side age register.
type StoreAgeMonitor struct {
	BaseMonitor
	inflight           []uint64 // ages of in-flight stores (dispatch..commit)
	loads              uint64
	olderThanAllStores uint64
}

// NewStoreAgeMonitor builds the monitor.
func NewStoreAgeMonitor() *StoreAgeMonitor { return &StoreAgeMonitor{} }

// Name identifies the monitor.
func (m *StoreAgeMonitor) Name() string { return "sq_filter" }

// StoreDispatch tracks the store entering the SQ.
func (m *StoreAgeMonitor) StoreDispatch(op *MemOp) {
	m.inflight = append(m.inflight, op.Age)
}

// StoreCommit removes the store from the in-flight set.
func (m *StoreAgeMonitor) StoreCommit(op *MemOp) {
	i := 0
	for i < len(m.inflight) && m.inflight[i] <= op.Age {
		i++
	}
	if i > 0 {
		m.inflight = m.inflight[:copy(m.inflight, m.inflight[i:])]
	}
}

// Squash drops squashed stores.
func (m *StoreAgeMonitor) Squash(fromAge uint64) {
	cut := sort.Search(len(m.inflight), func(i int) bool { return m.inflight[i] >= fromAge })
	m.inflight = m.inflight[:cut]
}

// LoadIssue counts whether the load is older than every in-flight store.
func (m *StoreAgeMonitor) LoadIssue(op *MemOp) {
	if op.WrongPath {
		return
	}
	m.loads++
	if len(m.inflight) == 0 || op.Age < m.inflight[0] {
		m.olderThanAllStores++
	}
}

// FilterRate returns the fraction of loads that could skip the SQ search.
func (m *StoreAgeMonitor) FilterRate() float64 {
	if m.loads == 0 {
		return 0
	}
	return float64(m.olderThanAllStores) / float64(m.loads)
}

// Report writes the monitor's counters.
func (m *StoreAgeMonitor) Report(s *stats.Set) {
	s.Put("sq_filter_rate", m.FilterRate())
	s.Put("sq_filter_loads", float64(m.loads))
}
