package telemetry

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// seq builds a monotonic n-sample series: cycle advances by stride,
// committed by stride/2, stalls accumulate in the load-miss bucket.
func seq(n int, stride uint64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		c := uint64(i+1) * stride
		out[i] = Sample{
			Cycle:     c,
			Committed: c / 2,
			Fetched:   c,
			Issued:    c * 3 / 4,
			ROB:       i % 256,
			Stalls:    StallCounts{StallLoadMiss: c / 4},
		}
	}
	return out
}

func TestSamplerDefaults(t *testing.T) {
	s := New(Config{})
	if got := s.Stride(); got != DefaultStride {
		t.Errorf("stride = %d, want default %d", got, DefaultStride)
	}
	sn := s.Snapshot()
	if len(sn.Samples) != 0 || sn.Total != 0 || sn.Dropped != 0 {
		t.Errorf("fresh sampler snapshot not empty: %+v", sn)
	}
	if _, ok := sn.Last(); ok {
		t.Error("Last on an empty snapshot reported a sample")
	}
	if sn.IPC() != 0 {
		t.Error("IPC on an empty snapshot nonzero")
	}
}

// The ring must retain the most recent Cap samples in chronological order
// and account for every overwritten one in Dropped.
func TestSamplerRingWrap(t *testing.T) {
	const cap, total = 8, 21
	s := New(Config{Stride: 10, Cap: cap})
	for _, smp := range seq(total, 10) {
		s.Record(smp)
	}
	sn := s.Snapshot()
	if sn.Total != total {
		t.Errorf("total = %d, want %d", sn.Total, total)
	}
	if sn.Dropped != total-cap {
		t.Errorf("dropped = %d, want %d", sn.Dropped, total-cap)
	}
	if len(sn.Samples) != cap {
		t.Fatalf("retained %d samples, want %d", len(sn.Samples), cap)
	}
	// Oldest retained sample is number total-cap+1 (1-based), and the series
	// stays strictly increasing.
	if want := uint64(total-cap+1) * 10; sn.Samples[0].Cycle != want {
		t.Errorf("oldest retained cycle = %d, want %d", sn.Samples[0].Cycle, want)
	}
	for i := 1; i < len(sn.Samples); i++ {
		if sn.Samples[i].Cycle <= sn.Samples[i-1].Cycle {
			t.Fatalf("snapshot out of order at %d: %d after %d",
				i, sn.Samples[i].Cycle, sn.Samples[i-1].Cycle)
		}
	}
	last, ok := sn.Last()
	if !ok || last.Cycle != total*10 {
		t.Errorf("last = %+v, want cycle %d", last, total*10)
	}
}

func TestSnapshotDerived(t *testing.T) {
	s := New(Config{Stride: 100, Cap: 16})
	s.SetMeta(Meta{Benchmark: "gcc", Config: "config2", Policy: "dmdc"})
	for _, smp := range seq(4, 100) {
		s.Record(smp)
	}
	sn := s.Snapshot()
	if sn.Meta.Benchmark != "gcc" || sn.Meta.Policy != "dmdc" {
		t.Errorf("meta lost: %+v", sn.Meta)
	}
	if got := sn.IPC(); got != 0.5 {
		t.Errorf("IPC = %v, want 0.5", got)
	}
	counts, frac := sn.StallBreakdown()
	if counts[StallLoadMiss] != 100 {
		t.Errorf("load-miss stalls = %d, want 100", counts[StallLoadMiss])
	}
	if frac[StallLoadMiss] != 0.25 {
		t.Errorf("load-miss fraction = %v, want 0.25", frac[StallLoadMiss])
	}
}

// Stat names are API: plotting scripts and the CSV header key off them.
func TestStatNames(t *testing.T) {
	wantStalls := []string{
		"core_stall_load_miss", "core_stall_store_unresolved",
		"core_stall_replay_squash", "core_stall_fetch_starve", "core_stall_exec",
	}
	for c, want := range wantStalls {
		if got := StallCause(c).StatName(); got != want {
			t.Errorf("StallCause(%d).StatName() = %q, want %q", c, got, want)
		}
	}
	wantHaz := []string{
		"core_dispatch_stall_rob_full", "core_dispatch_stall_iq_full",
		"core_dispatch_stall_regs_full", "core_dispatch_stall_lq_full",
		"core_dispatch_stall_sq_full",
	}
	for h, want := range wantHaz {
		if got := DispatchHazard(h).StatName(); got != want {
			t.Errorf("DispatchHazard(%d).StatName() = %q, want %q", h, got, want)
		}
	}
	if got := StallCause(200).String(); got != "unknown" {
		t.Errorf("out-of-range cause = %q, want unknown", got)
	}
}

// Concurrent Record/Snapshot must stay consistent (run under -race in CI).
func TestSamplerConcurrentSnapshot(t *testing.T) {
	s := New(Config{Stride: 1, Cap: 64})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			sn := s.Snapshot()
			for i := 1; i < len(sn.Samples); i++ {
				if sn.Samples[i].Cycle <= sn.Samples[i-1].Cycle {
					t.Errorf("torn snapshot: cycle %d after %d",
						sn.Samples[i].Cycle, sn.Samples[i-1].Cycle)
					return
				}
			}
		}
	}()
	for _, smp := range seq(5000, 3) {
		s.Record(smp)
	}
	close(done)
	wg.Wait()
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	for _, job := range []string{"b/gzip", "a/gcc"} {
		s := New(Config{Cap: 4})
		parts := strings.SplitN(job, "/", 2)
		s.SetMeta(Meta{Benchmark: parts[1], Config: "config2", Policy: parts[0]})
		s.Record(Sample{Cycle: 100, Committed: 50})
		r.Register(job, s)
	}
	if got := r.Keys(); len(got) != 2 || got[0] != "a/gcc" || got[1] != "b/gzip" {
		t.Errorf("keys = %v, want sorted [a/gcc b/gzip]", got)
	}
	if r.Get("a/gcc") == nil || r.Get("nope") != nil {
		t.Error("Get lookup broken")
	}
	snaps := r.Snapshots()
	if len(snaps) != 2 || snaps["a/gcc"].Meta.Benchmark != "gcc" {
		t.Errorf("snapshots = %v", snaps)
	}
}

func TestRegistryHTTP(t *testing.T) {
	r := NewRegistry()
	s := New(Config{Cap: 4})
	s.SetMeta(Meta{Benchmark: "gcc", Config: "config2", Policy: "dmdc"})
	s.Record(Sample{Cycle: 1000, Committed: 800, Stalls: StallCounts{StallLoadMiss: 100}})
	r.Register("dmdc-global-config2/gcc", s)

	// Index: one summary row per job.
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/telemetry", nil))
	if rec.Code != 200 {
		t.Fatalf("index status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"jobs"`, `"dmdc-global-config2/gcc"`, `"ipc": 0.8`, `"stall_frac": 0.1`} {
		if !strings.Contains(body, want) {
			t.Errorf("index response missing %s:\n%s", want, body)
		}
	}

	// Full per-job snapshot.
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/telemetry?job=dmdc-global-config2%2Fgcc", nil))
	if rec.Code != 200 {
		t.Fatalf("job status = %d", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, `"samples"`) || !strings.Contains(body, `"cycle": 1000`) {
		t.Errorf("job response missing samples:\n%s", body)
	}

	// Unknown job is a 404, still JSON.
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/telemetry?job=nope", nil))
	if rec.Code != 404 {
		t.Errorf("unknown job status = %d, want 404", rec.Code)
	}
}

// ReplaysTotal sums the per-cause replay counters.
func (s Sample) ReplaysTotal() uint64 {
	var t uint64
	for _, v := range s.Replays {
		t += v
	}
	return t
}

func TestSampleReplaysTotal(t *testing.T) {
	var s Sample
	for i := range s.Replays {
		s.Replays[i] = uint64(i + 1)
	}
	want := uint64(0)
	for i := range s.Replays {
		want += uint64(i + 1)
	}
	if got := s.ReplaysTotal(); got != want {
		t.Errorf("ReplaysTotal = %d, want %d", got, want)
	}
}

func TestConfigNormalized(t *testing.T) {
	for _, tc := range []struct {
		in     Config
		stride uint64
		cap    int
	}{
		{Config{}, DefaultStride, DefaultCap},
		{Config{Stride: 7}, 7, DefaultCap},
		{Config{Cap: 3}, DefaultStride, 3},
		{Config{Cap: -1}, DefaultStride, DefaultCap},
	} {
		got := tc.in.normalized()
		if got.Stride != tc.stride || got.Cap != tc.cap {
			t.Errorf("%+v.normalized() = %+v, want stride %d cap %d",
				tc.in, got, tc.stride, tc.cap)
		}
	}
}

func BenchmarkSamplerRecord(b *testing.B) {
	s := New(Config{Stride: 1024, Cap: 4096})
	smp := seq(1, 1024)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		smp.Cycle = uint64(i)
		s.Record(smp)
	}
}
