package experiments

import (
	"strings"
	"sync"
	"testing"

	"dmdc/internal/telemetry"
)

// One registry observed by the worker-pool matrix runner: several
// goroutines request overlapping run keys (exercising the singleflight
// path) while another continuously polls live snapshots, the way the
// -serve endpoint does mid-run. Run under -race this pins the locking
// discipline of the Sampler/Registry pair; the invariant checks pin that
// no job's samples bleed into another's stream.
func TestTelemetryConcurrentMatrix(t *testing.T) {
	s := mustSuite(Options{
		Insts:       2000,
		Benchmarks:  []string{"gzip", "swim"},
		Parallelism: 4,
		Telemetry:   &telemetry.Config{Stride: 64},
	})

	keys := []string{keyBase("config2"), keyGlobal("config2"), keyLocal("config2"), keyYLA}
	done := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			// A mid-run snapshot must already be internally consistent.
			for key, sn := range s.Telemetry().Snapshots() {
				checkJobSnapshot(t, key, sn, s.Options().Insts, false)
			}
		}
	}()

	var runs sync.WaitGroup
	for i := 0; i < 3; i++ {
		runs.Add(1)
		go func() {
			defer runs.Done()
			s.get(keys...) // overlapping requests: singleflight must dedupe
		}()
	}
	runs.Wait()
	close(done)
	poller.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	// Every (key, benchmark) job simulated exactly once, each with its own
	// complete stream.
	reg := s.Telemetry()
	if got, want := len(reg.Keys()), len(keys)*2; got != want {
		t.Fatalf("registry has %d jobs, want %d: %v", got, want, reg.Keys())
	}
	for key, sn := range reg.Snapshots() {
		checkJobSnapshot(t, key, sn, s.Options().Insts, true)
	}

	if rep := s.TelemetryReport(); !strings.Contains(rep, "commit-stall attribution") {
		t.Errorf("telemetry report missing attribution table:\n%s", rep)
	}
}

// checkJobSnapshot verifies one job's stream against the cross-job bleed
// invariants: the sampler's identity matches its registry key, cycles and
// committed counts are monotonic, and no sample exceeds the run's
// instruction budget. With complete set, the stream must end exactly at
// the budget.
func checkJobSnapshot(t *testing.T, key string, sn telemetry.Snapshot, insts uint64, complete bool) {
	t.Helper()
	if sn.Meta.Benchmark != "" && !strings.HasSuffix(key, "/"+sn.Meta.Benchmark) {
		t.Errorf("job %s carries samples from benchmark %q", key, sn.Meta.Benchmark)
	}
	var prev telemetry.Sample
	for i, smp := range sn.Samples {
		if i > 0 && (smp.Cycle < prev.Cycle || smp.Committed < prev.Committed) {
			t.Errorf("job %s: sample %d goes backwards (cycle %d→%d, committed %d→%d)",
				key, i, prev.Cycle, smp.Cycle, prev.Committed, smp.Committed)
		}
		// The budget-crossing cycle retires its whole commit group, so a
		// run may overshoot by up to a commit width.
		if smp.Committed > insts+8 {
			t.Errorf("job %s: sample committed=%d exceeds budget %d", key, smp.Committed, insts)
		}
		prev = smp
	}
	if complete {
		last, ok := sn.Last()
		if !ok {
			t.Errorf("job %s: no samples after run completed", key)
		} else if last.Committed < insts {
			t.Errorf("job %s: final committed=%d, want ≥%d", key, last.Committed, insts)
		}
	}
}

// A suite without telemetry must report it disabled and hand out a nil
// registry that the HTTP layer and report path both tolerate.
func TestTelemetryDisabled(t *testing.T) {
	s := mustSuite(Options{Insts: 1000, Benchmarks: []string{"gzip"}})
	if s.Telemetry() != nil {
		t.Fatal("registry allocated without telemetry options")
	}
	if got := s.TelemetryReport(); !strings.Contains(got, "disabled") {
		t.Errorf("report = %q, want disabled notice", got)
	}
}
