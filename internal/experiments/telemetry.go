package experiments

import (
	"fmt"
	"sort"

	"dmdc/internal/stats"
	"dmdc/internal/telemetry"
)

// Per-job telemetry plumbing: when Options.Telemetry is set, every
// simulated cell of the matrix gets its own Sampler, registered in the
// suite-wide Registry under "<run key>/<benchmark>" before the run starts —
// so the -serve live endpoint watches jobs mid-flight. Cache hits skip
// telemetry: a cached Result carries no samples, and re-simulating to
// produce them would defeat the cache.

// Telemetry returns the suite's sampler registry, or nil when telemetry is
// disabled. Safe for concurrent use with a running matrix.
func (s *Suite) Telemetry() *telemetry.Registry { return s.telemetry }

// jobKey names one telemetry stream.
func jobKey(runKey, bench string) string { return runKey + "/" + bench }

// TelemetryReport renders a per-job stall-attribution table from the
// registry: overall IPC, the fraction of cycles with zero commits, and how
// those stalled cycles split across the commit-stall taxonomy. Jobs that
// were served from the result cache carry no samples and are omitted.
func (s *Suite) TelemetryReport() string {
	if s.telemetry == nil {
		return "telemetry disabled\n"
	}
	snaps := s.telemetry.Snapshots()
	keys := make([]string, 0, len(snaps))
	for k := range snaps {
		if len(snaps[k].Samples) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	tb := stats.NewTable("Telemetry: commit-stall attribution (fraction of all cycles)",
		"job", "ipc", "stall", "load", "store", "replay", "starve", "exec")
	for _, k := range keys {
		sn := snaps[k]
		counts, frac := sn.StallBreakdown()
		row := []any{k, fmt.Sprintf("%.3f", sn.IPC())}
		last, _ := sn.Last()
		total := 0.0
		if last.Cycle > 0 {
			total = float64(counts.Total()) / float64(last.Cycle)
		}
		row = append(row, fmt.Sprintf("%.1f%%", 100*total))
		for c := 0; c < telemetry.NumStallCauses; c++ {
			row = append(row, fmt.Sprintf("%.1f%%", 100*frac[c]))
		}
		tb.AddRow(row...)
	}
	return tb.String()
}
