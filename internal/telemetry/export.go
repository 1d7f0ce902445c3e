package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"dmdc/internal/lsq"
)

// This file renders a Snapshot in three formats:
//
//   - CSV: one row per sample, cumulative counters as recorded plus a few
//     derived interval rates — the format plotting scripts want.
//   - JSON: the Snapshot itself, for programmatic consumers.
//   - Chrome trace_event JSON: load it in chrome://tracing (or Perfetto).
//     Pipeline activity appears as duration lanes (fetch / issue / commit),
//     with counter tracks for IPC, occupancies, replays, stalls, and the
//     checking structures.
//
// Exporters must hold up under arbitrary sample contents — the fuzz target
// FuzzTraceEventExport feeds them non-monotonic and overflowing series — so
// every interval delta and duration is clamped to be non-negative rather
// than trusted.

// WriteJSON marshals the snapshot (indented) to w.
func (sn Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(sn, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// csvHeader lists the columns WriteCSV emits.
func csvHeader() []string {
	cols := []string{
		"cycle", "committed", "fetched", "issued",
		"ipc_interval", "ipc_cum",
		"rob", "iq", "sq", "inflight_loads",
		"check_occ", "checking", "filter_hits", "filter_lookups",
	}
	for c := 0; c < NumStallCauses; c++ {
		cols = append(cols, StallCause(c).StatName())
	}
	for h := 0; h < NumDispatchHazards; h++ {
		cols = append(cols, DispatchHazard(h).StatName())
	}
	for c := 0; c < lsq.NumCauses; c++ {
		cols = append(cols, "replay_"+lsq.Cause(c).String())
	}
	return cols
}

// WriteCSV emits one row per sample. Counter columns are cumulative (as
// recorded); ipc_interval is derived from adjacent samples.
func (sn Snapshot) WriteCSV(w io.Writer) error {
	hdr := csvHeader()
	for i, c := range hdr {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, c); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	var prev Sample
	row := make([]byte, 0, 256)
	for i, s := range sn.Samples {
		dc := delta(prev.Cycle, s.Cycle)
		di := delta(prev.Committed, s.Committed)
		ipcInt := 0.0
		if dc > 0 {
			ipcInt = float64(di) / float64(dc)
		}
		ipcCum := 0.0
		if s.Cycle > 0 {
			ipcCum = float64(s.Committed) / float64(s.Cycle)
		}
		row = row[:0]
		row = strconv.AppendUint(row, s.Cycle, 10)
		row = append(row, ',')
		row = strconv.AppendUint(row, s.Committed, 10)
		row = append(row, ',')
		row = strconv.AppendUint(row, s.Fetched, 10)
		row = append(row, ',')
		row = strconv.AppendUint(row, s.Issued, 10)
		row = append(row, ',')
		row = strconv.AppendFloat(row, ipcInt, 'f', 4, 64)
		row = append(row, ',')
		row = strconv.AppendFloat(row, ipcCum, 'f', 4, 64)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.ROB), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.IQ), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.SQ), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.InflightLoads), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.CheckOcc), 10)
		row = append(row, ',')
		if s.Checking {
			row = append(row, '1')
		} else {
			row = append(row, '0')
		}
		row = append(row, ',')
		row = strconv.AppendUint(row, s.FilterHits, 10)
		row = append(row, ',')
		row = strconv.AppendUint(row, s.FilterLookups, 10)
		for _, v := range s.Stalls {
			row = append(row, ',')
			row = strconv.AppendUint(row, v, 10)
		}
		for _, v := range s.DispatchStalls {
			row = append(row, ',')
			row = strconv.AppendUint(row, v, 10)
		}
		for _, v := range s.Replays {
			row = append(row, ',')
			row = strconv.AppendUint(row, v, 10)
		}
		row = append(row, '\n')
		if _, err := w.Write(row); err != nil {
			return err
		}
		prev = sn.Samples[i]
	}
	return nil
}

// TraceEvent is one entry of a Chrome trace_event file (the subset of the
// format we emit: M metadata, X complete/duration, C counter events).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace_event JSON object.
type ChromeTrace struct {
	TraceEvents     []TraceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// Lane thread ids in the exported trace. Counter tracks sort by name.
const (
	tidFetch  = 1
	tidIssue  = 2
	tidCommit = 3
)

// delta returns cur-prev clamped at zero: snapshots from a live sampler
// are monotonic, but the exporters are also exercised by fuzzing with
// arbitrary series, and a negative interval must not produce a negative
// duration or a wrapped uint64.
func delta(prev, cur uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// BuildChromeTrace converts the snapshot into trace_event form. One
// microsecond of trace time equals one simulated cycle. Per interval, each
// pipeline lane (fetch/issue/commit) gets an X duration event whose args
// carry the instruction count and per-cycle rate, and counter tracks record
// IPC, occupancies, replay deltas, stall deltas, and the checking probes.
func (sn Snapshot) BuildChromeTrace() ChromeTrace {
	meta := sn.Meta
	procName := meta.Benchmark
	if procName == "" {
		procName = "sim"
	}
	if meta.Config != "" || meta.Policy != "" {
		procName = fmt.Sprintf("%s/%s/%s", procName, meta.Config, meta.Policy)
	}
	tr := ChromeTrace{
		DisplayTimeUnit: "ms",
		OtherData: map[string]string{
			"benchmark": meta.Benchmark,
			"config":    meta.Config,
			"policy":    meta.Policy,
			"stride":    strconv.FormatUint(sn.Stride, 10),
			"unit":      "1us = 1 cycle",
		},
	}
	ev := func(e TraceEvent) { tr.TraceEvents = append(tr.TraceEvents, e) }
	ev(TraceEvent{Name: "process_name", Ph: "M", Args: map[string]any{"name": procName}})
	for _, th := range []struct {
		tid  int
		name string
	}{{tidFetch, "fetch"}, {tidIssue, "issue"}, {tidCommit, "commit"}} {
		ev(TraceEvent{Name: "thread_name", Ph: "M", Tid: th.tid, Args: map[string]any{"name": th.name}})
	}

	counter := func(ts float64, name string, args map[string]any) {
		ev(TraceEvent{Name: name, Cat: "counter", Ph: "C", Ts: ts, Args: args})
	}
	lane := func(ts, dur float64, tid int, name string, n uint64) {
		rate := 0.0
		if dur > 0 {
			rate = float64(n) / dur
		}
		ev(TraceEvent{
			Name: name, Cat: "pipeline", Ph: "X", Ts: ts, Dur: dur, Tid: tid,
			Args: map[string]any{"insts": n, "per_cycle": rate},
		})
	}

	var prev Sample
	for i, s := range sn.Samples {
		ts := float64(prev.Cycle)
		dc := delta(prev.Cycle, s.Cycle)
		dur := float64(dc)
		if dc > 0 {
			lane(ts, dur, tidFetch, "fetch", delta(prev.Fetched, s.Fetched))
			lane(ts, dur, tidIssue, "issue", delta(prev.Issued, s.Issued))
			lane(ts, dur, tidCommit, "commit", delta(prev.Committed, s.Committed))
			counter(ts, "ipc", map[string]any{
				"ipc": float64(delta(prev.Committed, s.Committed)) / dur,
			})
		}
		end := float64(s.Cycle)
		counter(end, "occupancy", map[string]any{
			"rob": s.ROB, "iq": s.IQ, "sq": s.SQ, "loads": s.InflightLoads,
		})
		replayArgs := make(map[string]any, lsq.NumCauses)
		for c := 0; c < lsq.NumCauses; c++ {
			replayArgs[lsq.Cause(c).String()] = delta(prev.Replays[c], s.Replays[c])
		}
		counter(end, "replays", replayArgs)
		stallArgs := make(map[string]any, NumStallCauses)
		for c := 0; c < NumStallCauses; c++ {
			stallArgs[StallCause(c).String()] = delta(prev.Stalls[c], s.Stalls[c])
		}
		counter(end, "stalls", stallArgs)
		hazArgs := make(map[string]any, NumDispatchHazards)
		for h := 0; h < NumDispatchHazards; h++ {
			hazArgs[DispatchHazard(h).String()] = delta(prev.DispatchStalls[h], s.DispatchStalls[h])
		}
		counter(end, "dispatch_hazards", hazArgs)
		checking := 0
		if s.Checking {
			checking = 1
		}
		counter(end, "checking", map[string]any{
			"table_occ": s.CheckOcc, "active": checking,
		})
		if s.FilterLookups > 0 {
			counter(end, "filter_hit_rate", map[string]any{
				"rate": float64(s.FilterHits) / float64(s.FilterLookups),
			})
		}
		prev = sn.Samples[i]
	}
	return tr
}

// WriteChromeTrace writes the trace_event JSON to w.
func (sn Snapshot) WriteChromeTrace(w io.Writer) error {
	b, err := json.Marshal(sn.BuildChromeTrace())
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFiles exports the snapshot as three sibling files —
// PREFIX.csv (WriteCSV), PREFIX.series.json (WriteJSON) and
// PREFIX.trace.json (WriteChromeTrace) — and returns the paths it wrote,
// in that order, up to the first failure.
func (sn Snapshot) WriteFiles(prefix string) ([]string, error) {
	exports := []struct {
		suffix string
		write  func(io.Writer) error
	}{
		{".csv", sn.WriteCSV},
		{".series.json", sn.WriteJSON},
		{".trace.json", sn.WriteChromeTrace},
	}
	var written []string
	for _, ex := range exports {
		path := prefix + ex.suffix
		f, err := os.Create(path)
		if err != nil {
			return written, err
		}
		err = ex.write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return written, fmt.Errorf("%s: %w", path, err)
		}
		written = append(written, path)
	}
	return written, nil
}
