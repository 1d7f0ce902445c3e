package experiments

import (
	"context"
	"sync"

	"dmdc/internal/trace"
)

// maxTapeInsts caps a tape's length, and so its records at 16 MiB: the
// default 1M-instruction report is covered whole, and a cell of a longer
// run replays the first maxTapeInsts instructions and generates the rest
// live, with the same result.
const maxTapeInsts = 1 << 20

// tapeSet holds the committed-path tapes of one runMatrix call. Every
// cell of a benchmark simulates the same committed path, so the first
// cell that has to simulate records it once, and the benchmark's later
// cells replay the recording instead of generating it again
// (core.WithTape). A tape is released when the last queued cell of its
// benchmark finishes, and its storage records the next benchmark's tape.
// runMatrix queues cells benchmark-major, so at most one tape per worker,
// plus the one of the benchmark being queued, is ever live.
type tapeSet struct {
	n int // instructions per tape

	mu      sync.Mutex
	benches map[string]*benchTape
	free    []*trace.Tape // released tapes, to record the next ones into
}

// benchTape is one benchmark's tape and its outstanding cells.
type benchTape struct {
	pending int         // queued cells that have not finished
	tape    *trace.Tape // nil until recorded, and again once released
	claimed bool        // a cell has recorded the tape or declined to
}

// newTapeSet returns the tape set of a matrix that queues cellsEach cells
// for each entry of benches, each simulating insts instructions and
// fetching at most ahead more.
func newTapeSet(insts, ahead int, benches []string, cellsEach int) *tapeSet {
	ts := &tapeSet{n: min(insts+ahead, maxTapeInsts), benches: make(map[string]*benchTape, len(benches))}
	for _, b := range benches {
		if ts.benches[b] == nil {
			ts.benches[b] = new(benchTape)
		}
		ts.benches[b].pending += cellsEach
	}
	return ts
}

// acquire returns bench's tape for a cell about to simulate, or nil for a
// cell that generates its path live. The first cell to ask records the
// tape, on its own goroutine, unless it is the benchmark's last cell (no
// other cell could replay the recording) or ctx is done. A cell that asks
// while the recording is in progress gets nil, as does every cell of a
// benchmark without a profile (it fails on its own) or of a nil set.
func (ts *tapeSet) acquire(ctx context.Context, bench string) *trace.Tape {
	if ts == nil || ctx.Err() != nil {
		return nil
	}
	ts.mu.Lock()
	bt := ts.benches[bench]
	if bt.claimed || bt.pending == 1 {
		t := bt.tape
		ts.mu.Unlock()
		return t
	}
	bt.claimed = true
	prof, err := trace.ByName(bench)
	if err != nil {
		ts.mu.Unlock()
		return nil
	}
	t := new(trace.Tape)
	if k := len(ts.free); k > 0 {
		t, ts.free = ts.free[k-1], ts.free[:k-1]
	}
	ts.mu.Unlock()

	t.Record(prof, ts.n)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	bt.tape = t
	return t
}

// done marks one of bench's cells finished, whatever its outcome, and
// releases the benchmark's tape after its last cell.
func (ts *tapeSet) done(bench string) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	bt := ts.benches[bench]
	bt.pending--
	if bt.pending == 0 && bt.tape != nil {
		ts.free = append(ts.free, bt.tape)
		bt.tape = nil
	}
}
