package lsq

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/stats"
)

func testValueBased(svw bool) *ValueBased {
	return Must(NewValueBased(ValueBasedConfig{SVW: svw, SVWSize: 1024, LoadCap: 256}, new(energy.Model)))
}

func TestValueBasedConfigValidate(t *testing.T) {
	if err := (ValueBasedConfig{SVW: true, SVWSize: 64, LoadCap: 8}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []ValueBasedConfig{
		{SVW: true, SVWSize: 100, LoadCap: 8},
		{SVW: true, SVWSize: 0, LoadCap: 8},
		{LoadCap: 0},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config accepted: %+v", c)
		}
	}
}

func TestValueBasedRejectsBadConfig(t *testing.T) {
	_, err := NewValueBased(ValueBasedConfig{}, new(energy.Model))
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("zero load cap: err = %v, want *ConfigError", err)
	}
}

// driveValueBased replays a scenario: issues/resolves in time order, then
// commits in age order (stores stamping the SVW before younger loads
// check, matching in-order commit).
func driveValueBased(v *ValueBased, sc scenario) uint64 {
	ops := sc.memOps()
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if sc.ops[order[j]].when < sc.ops[order[i]].when {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, idx := range order {
		m := ops[idx]
		if m.IsLoad {
			m.Issued = true
			v.LoadIssue(m)
		} else if r := v.StoreResolve(m); r != nil {
			panic("value-based must not replay at resolve")
		}
	}
	for _, m := range ops {
		v.InstCommit(m.Age)
		if m.IsLoad {
			if r := v.LoadCommit(m); r != nil {
				return r.FromAge
			}
		} else {
			v.StoreCommit(m)
		}
	}
	return 0
}

// driveValueBasedInCoreOrder replays a scenario in the core's order: each
// cycle first commits, oldest first, every op that executed in an earlier
// cycle, and then issues the load or resolves the store whose time it is.
// Stores then commit while younger loads are still to issue, so a load's
// issue-time store count, which bounds the commit check, is not always 0
// as it is under driveValueBased.
func driveValueBasedInCoreOrder(v *ValueBased, sc scenario) uint64 {
	ops := sc.memOps()
	byTime := make([]*MemOp, len(ops))
	for i, op := range sc.ops {
		byTime[op.when] = ops[i]
	}
	head := 0
	for cycle := uint64(0); head < len(ops); cycle++ {
		for ; head < len(ops) && sc.ops[head].when < cycle; head++ {
			m := ops[head]
			v.InstCommit(m.Age)
			if !m.IsLoad {
				v.StoreCommit(m)
			} else if r := v.LoadCommit(m); r != nil {
				return r.FromAge
			}
		}
		if cycle >= uint64(len(byTime)) {
			continue
		}
		if m := byTime[cycle]; m.IsLoad {
			m.Issued = true
			v.LoadIssue(m)
		} else if v.StoreResolve(m) != nil {
			panic("value-based must not replay at resolve")
		}
	}
	return 0
}

// valueBasedDrivers are the two schedules the property tests replay.
var valueBasedDrivers = map[string]func(*ValueBased, scenario) uint64{
	"issue-then-commit": driveValueBased,
	"core-order":        driveValueBasedInCoreOrder,
}

func TestValueBasedDetectsViolation(t *testing.T) {
	v := testValueBased(false)
	ld := newLoad(10, 0x100, 8)
	ld.IssueCycle = 5
	ld.Issued = true
	v.LoadIssue(ld)
	st := newStore(3, 0x100, 8)
	st.ResolveCycle = 9
	v.StoreResolve(st)
	v.StoreCommit(st)
	r := v.LoadCommit(ld)
	if r == nil || r.Cause != CauseTrue || r.FromAge != 10 {
		t.Fatalf("violation not caught: %+v", r)
	}
}

func TestValueBasedNoFalsePositives(t *testing.T) {
	// Value comparison only fires on genuine violations: a load that
	// issued after the store resolved compares equal.
	v := testValueBased(false)
	st := newStore(3, 0x100, 8)
	st.ResolveCycle = 2
	v.StoreResolve(st)
	ld := newLoad(10, 0x100, 8)
	ld.IssueCycle = 7
	ld.Issued = true
	v.LoadIssue(ld)
	v.StoreCommit(st)
	if r := v.LoadCommit(ld); r != nil {
		t.Error("false positive from value comparison")
	}
}

func TestSVWFiltersInvulnerableLoads(t *testing.T) {
	v := testValueBased(true)
	// Load issues; NO store commits afterward: filtered, no re-execution.
	ld := newLoad(10, 0x100, 8)
	ld.Issued = true
	v.LoadIssue(ld)
	if r := v.LoadCommit(ld); r != nil {
		t.Fatal("unexpected replay")
	}
	s := stats.NewSet()
	v.Report(s)
	if s.Get("svw_filtered") != 1 || s.Get("reexecutions") != 0 {
		t.Errorf("SVW did not filter: %v", s)
	}
}

func TestSVWDoesNotFilterVulnerableLoads(t *testing.T) {
	v := testValueBased(true)
	ld := newLoad(10, 0x100, 8)
	ld.IssueCycle = 5
	ld.Issued = true
	v.LoadIssue(ld)
	st := newStore(3, 0x100, 8)
	st.ResolveCycle = 9
	v.StoreResolve(st)
	v.StoreCommit(st) // commits after the load issued: load is vulnerable
	r := v.LoadCommit(ld)
	if r == nil {
		t.Fatal("SVW filtered a genuinely vulnerable load")
	}
}

// Soundness: value-based checking (with and without SVW) never misses a
// genuine violation.
func TestValueBasedSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 2500; trial++ {
		sc := makeScenario(rng, 3+rng.Intn(12))
		want := sc.groundTruthViolation()
		if want == 0 {
			continue
		}
		for name, drive := range valueBasedDrivers {
			for _, svw := range []bool{false, true} {
				got := drive(testValueBased(svw), sc)
				if got == 0 || got > want {
					t.Fatalf("trial %d %s svw=%v: violation at %d, replay at %d\nops: %+v",
						trial, name, svw, want, got, sc.ops)
				}
			}
		}
	}
}

// Value-based checking is exact: no false replays on violation-free
// scenarios.
func TestValueBasedNoFalseReplaysProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 2500; trial++ {
		sc := makeScenario(rng, 3+rng.Intn(12))
		if sc.groundTruthViolation() != 0 {
			continue
		}
		for name, drive := range valueBasedDrivers {
			if got := drive(testValueBased(true), sc); got != 0 {
				t.Fatalf("trial %d %s: false replay at %d", trial, name, got)
			}
		}
	}
}

// fullRingStale is the commit check without the bound on the load's
// issue-time store count: every entry of the recent-store ring, in
// storage order. FuzzValueBasedCommit compares LoadCommit with it.
func fullRingStale(v *ValueBased, op *MemOp) bool {
	for i := range v.recentStores {
		st := &v.recentStores[i]
		if st.age < op.Age && isa.Overlap(st.addr, st.size, op.Addr, op.Size) &&
			op.IssueCycle < st.resolveCycle {
			return true
		}
	}
	return false
}

// commitSchedule is a stream of memory operations for a small
// out-of-order window driven in the core's order, decoded from fuzz
// bytes. data[0] sets the length: 8 + 24·data[0] operations, enough at
// the top for the recent-store ring to wrap several times. The rest is a
// pattern of two bytes per operation, repeated over the stream:
//
//	byte 0: bit 0 — load/store; bits 1-2 — size index; bits 3-5 — slot
//	byte 1: bits 0-3 — cycles from dispatch to issue or resolve
//
// Each repetition shifts the slots by one, so a repeated pattern still
// meets new addresses.
type commitSchedule struct {
	ops   []MemOp
	delay []uint64
}

func decodeCommitSchedule(data []byte) (commitSchedule, bool) {
	if len(data) < 3 {
		return commitSchedule{}, false
	}
	pat := data[1 : 1+(len(data)-1)/2*2]
	n := 8 + 24*int(data[0])
	s := commitSchedule{ops: make([]MemOp, n), delay: make([]uint64, n)}
	sizes := []uint8{1, 2, 4, 8}
	for i := range s.ops {
		j, round := 2*(i%(len(pat)/2)), i/(len(pat)/2)
		a := pat[j]
		size := sizes[(a>>1)&3]
		addr := 0x1000 + uint64((int(a>>3)+round)&7)*8
		s.ops[i] = MemOp{Age: uint64(i + 1), IsLoad: a&1 == 0, Addr: addr - addr%uint64(size), Size: size}
		s.delay[i] = uint64(pat[j+1] & 15)
	}
	return s, true
}

// runInCoreOrder drives v through the schedule the way the core does: a
// window of 32 operations, each cycle first committing up to 4 executed
// ones oldest first, then issuing loads and resolving stores whose time
// has come, then dispatching up to 4. A replay squashes the load and
// every younger operation in the window, which execute again. check sees
// every LoadCommit decision with the store ring as the decision read it.
func (s commitSchedule) runInCoreOrder(v *ValueBased, check func(op *MemOp, stale bool, r *Replay)) {
	const window, width = 32, 4
	ops := s.ops
	execAt := make([]uint64, len(ops))
	done := make([]bool, len(ops))
	head, tail := 0, 0 // the window is ops[head:tail]
	for cycle := uint64(1); head < len(ops); cycle++ {
		for n := 0; n < width && head < tail && done[head] && execAt[head] < cycle; n++ {
			m := &ops[head]
			v.InstCommit(m.Age)
			if !m.IsLoad {
				v.StoreCommit(m)
				head++
				continue
			}
			stale := fullRingStale(v, m)
			r := v.LoadCommit(m)
			check(m, stale, r)
			if r == nil {
				head++
				continue
			}
			for i := head; i < tail; i++ {
				done[i], execAt[i] = false, cycle+1+s.delay[i]
			}
			break
		}
		for i := head; i < tail; i++ {
			if done[i] || execAt[i] != cycle {
				continue
			}
			m := &ops[i]
			done[i] = true
			if m.IsLoad {
				m.Issued, m.IssueCycle = true, cycle
				v.LoadIssue(m)
			} else {
				m.ResolveCycle = cycle
				v.StoreResolve(m)
			}
		}
		for n := 0; n < width && tail < len(ops) && tail-head < window; n++ {
			execAt[tail] = cycle + 1 + s.delay[tail]
			tail++
		}
	}
}

// FuzzValueBasedCommit checks the bounded commit check against the
// full-ring scan: over schedules in the core's order, with and without
// the SVW filter, every LoadCommit replays exactly when a load the filter
// passes is stale by the full scan, replays from the load itself as a
// true violation, and the filter passes every stale load.
func FuzzValueBasedCommit(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		f.Add(append([]byte{byte(rng.Intn(64))}, encodeScenario(makeScenario(rng, 3+rng.Intn(12)))...))
	}
	// A store resolving late behind a quick load to the same slot, over a
	// stream long enough to wrap the ring several times.
	f.Add([]byte{0x7f, 0x01, 0x0f, 0x00, 0x00, 0x02, 0x03})
	f.Add([]byte{0xff, 0x01, 0x09, 0x08, 0x01, 0x11, 0x0c, 0x19, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok := decodeCommitSchedule(data)
		if !ok {
			return
		}
		for _, svw := range []bool{false, true} {
			v := Must(NewValueBased(ValueBasedConfig{SVW: svw, SVWSize: 16, LoadCap: 32}, new(energy.Model)))
			sched := commitSchedule{ops: slices.Clone(s.ops), delay: s.delay}
			sched.runInCoreOrder(v, func(op *MemOp, stale bool, r *Replay) {
				filtered := svw && v.svw[v.hash.index(op.Addr)] <= op.EndAge
				switch {
				case filtered && stale:
					t.Fatalf("svw: filtered load %d is stale", op.Age)
				case (r != nil) != (stale && !filtered):
					t.Fatalf("svw=%v: load %d (issued at %d after %d of %d stores) replayed %v, full scan says stale %v",
						svw, op.Age, op.IssueCycle, op.EndAge, v.storeSeq, r != nil, stale)
				case r != nil && (r.FromAge != op.Age || r.Cause != CauseTrue):
					t.Fatalf("load %d: replay %+v, want a true violation from the load", op.Age, *r)
				}
			})
		}
	})
}

func TestValueBasedNames(t *testing.T) {
	if testValueBased(false).Name() != "value-based" {
		t.Error("name wrong")
	}
	if testValueBased(true).Name() != "value-svw1024" {
		t.Error("svw name wrong")
	}
	if testValueBased(true).LoadCapacity() != 256 {
		t.Error("capacity wrong")
	}
}

func TestValueBasedBandwidthAccounting(t *testing.T) {
	em := energy.NewModel(0)
	v := Must(NewValueBased(ValueBasedConfig{LoadCap: 64}, em))
	for i := 0; i < 100; i++ {
		ld := newLoad(uint64(i+1), uint64(0x1000+i*8), 8)
		ld.Issued = true
		v.LoadIssue(ld)
		v.LoadCommit(ld)
	}
	s := stats.NewSet()
	v.Report(s)
	if s.Get("reexecutions") != 100 {
		t.Errorf("re-executions = %v, want 100 (every load, no filter)", s.Get("reexecutions"))
	}
	if em.Snapshot().Of(energy.CompL1D) <= 0 {
		t.Error("re-execution bandwidth not charged")
	}
}
