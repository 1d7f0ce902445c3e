package lsq

// Telemetry probes: read-only windows into a policy's checking structures,
// sampled by the telemetry layer at its stride. Implementing the interface
// is optional — the core probes only policies that expose it — and every
// method must be a pure read so instrumented runs stay cycle-identical to
// uninstrumented ones.

// ProbeSample is one instantaneous reading of a policy's checking state.
type ProbeSample struct {
	// CheckOcc is the occupancy of the policy's checking structure: dirty
	// checking-table lines (DMDC), live LQ entries (CAM), pending
	// re-execution candidates (value-based).
	CheckOcc int
	// Checking reports whether a delayed checking window is being drained
	// (DMDC only; always false for eager policies).
	Checking bool
	// FilterHits / FilterLookups expose the policy's age-based filter
	// effectiveness (YLA safe-store decisions, Bloom/SVW filter hits);
	// hits/lookups is the filter hit rate.
	FilterHits    uint64
	FilterLookups uint64
}

// TelemetryProbe is implemented by policies that expose checking-state
// gauges to the telemetry layer.
type TelemetryProbe interface {
	TelemetrySample() ProbeSample
}

// TelemetrySample reports live LQ occupancy and search-filter hit rate.
func (c *CAM) TelemetrySample() ProbeSample {
	return ProbeSample{
		CheckOcc:      len(c.loads) - c.hd,
		FilterHits:    c.filtered,
		FilterLookups: c.searches + c.filtered,
	}
}

// TelemetrySample reports checking-table dirty lines (or queued stores
// while a window is being buffered) and the YLA safe-store hit rate.
func (d *DMDC) TelemetrySample() ProbeSample {
	occ := len(d.dirty)
	if q := len(d.queue()); q > occ {
		occ = q
	}
	return ProbeSample{
		CheckOcc:      occ,
		Checking:      d.checking,
		FilterHits:    d.safeStores,
		FilterLookups: d.safeStores + d.unsafeStores,
	}
}

// TelemetrySample reports pending re-execution candidates and the SVW
// filter hit rate (filtered re-executions over all commit-time checks).
func (v *ValueBased) TelemetrySample() ProbeSample {
	return ProbeSample{
		CheckOcc:      len(v.recentStores),
		FilterHits:    v.svwFiltered,
		FilterLookups: v.svwFiltered + v.reexecutions,
	}
}
