package main

import (
	"context"
	"time"

	"dmdc/internal/checkpoint"
	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/energy"
	"dmdc/internal/experiments"
	"dmdc/internal/trace"
)

// detailCells are the cell-detail workload's cells, each stressing a
// different layer: gcc fetches ~0.7 wrong-path instructions per committed
// one while swim fetches almost none, mcf is miss-bound, vortex on config3
// is replay-heavy, iqpress keeps the issue queue full, value-based
// re-accesses the cache for every load at commit, and gzip runs the YLA
// filter. Their count is odd on purpose: the cells take different times,
// so the latencies form one cluster per cell, and with an odd count the
// median falls inside a cluster rather than on the gap between two.
var detailCells = []struct{ bench, machine, policy string }{
	{"gcc", "config2", "dmdc"},
	{"mcf", "config2", "dmdc"},
	{"swim", "config2", "baseline"},
	{"vortex", "config3", "dmdc-local"},
	{"gcc", "iqpress", "baseline"},
	{"perlbmk", "config1", "value-based"},
	{"gzip", "config2", "yla"},
}

// cellInput is one prepared cell: its construction inputs and the
// generator state at the seed's offset into the benchmark's stream.
type cellInput struct {
	name    string
	machine config.Machine
	prof    trace.Profile
	factory experiments.PolicyFactory
	state   []byte
}

type cellWorkload struct {
	sz    sizes
	cells []cellInput
	next  int         // the cell the next pass runs
	arena *core.Arena // reused across cells, as dmdc.Run reuses pooled arenas
}

// setupCells prepares each cell's instruction window. Seed 0 starts every
// stream at reset, exactly as dmdc.Run does; any other seed starts each
// cell at its own offset below WindowSpan, a held-out stretch of the same
// program. Varying the profile's own seed instead would build a different
// program, whose host cost differs by tens of percent. Every seed walks the
// full WindowSpan so set-up costs the same for all of them.
func setupCells(_ context.Context, e env) (instance, error) {
	w := &cellWorkload{sz: e.sz, arena: core.NewArena()}
	for i, c := range detailCells {
		m, err := config.ByName(c.machine)
		if err != nil {
			return nil, err
		}
		prof, err := trace.ByName(c.bench)
		if err != nil {
			return nil, err
		}
		f, err := experiments.PolicyFactoryByName(c.policy)
		if err != nil {
			return nil, err
		}
		off := streamOffset(e.seed, i, e.sz.WindowSpan)
		g := trace.NewGenerator(prof)
		var state []byte
		for n := uint64(0); n <= e.sz.WindowSpan; n++ {
			if n == off {
				enc := checkpoint.NewEncoder()
				g.SaveState(enc)
				state = enc.Finish()
			}
			if n < e.sz.WindowSpan {
				g.Next()
			}
		}
		w.cells = append(w.cells, cellInput{
			name:    c.bench + "/" + c.machine + "/" + c.policy,
			machine: m, prof: prof, factory: f, state: state,
		})
	}
	return w, nil
}

// streamOffset picks cell i's stream offset for a seed (splitmix64).
func streamOffset(seed int64, i int, span uint64) uint64 {
	if seed == 0 || span == 0 {
		return 0
	}
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z ^ z>>31) % span
}

// generator returns a fresh generator positioned at the cell's window.
func (c *cellInput) generator() (*trace.Generator, error) {
	g := trace.NewGenerator(c.prof)
	d, err := checkpoint.NewDecoder(c.state)
	if err != nil {
		return nil, err
	}
	if err := g.LoadState(d); err != nil {
		return nil, err
	}
	return g, d.Finish()
}

func (w *cellWorkload) close() {}

// pass runs the next cell, so the machine's speed is calibrated around
// every cell. A cell is built the way dmdc.Run builds one (policy from the
// shared factory table, a fresh energy model, a reused arena) over
// core.NewWithWorkload, so a traced pass can wrap the policy and the
// instruction supply.
func (w *cellWorkload) pass(ctx context.Context, t *tally) error {
	c := &w.cells[w.next]
	w.next = (w.next + 1) % len(w.cells)
	t0 := time.Now()
	r, err := w.run(ctx, c, t.tr, w.sz.CellInsts, nil)
	d := time.Since(t0)
	if err != nil {
		t.fail("cell %s: %v", c.name, err)
		return nil
	}
	t.tr.add("core", "cell", c.name, "pass", t0, t0.Add(d), 0)
	t.op(d)
	t.simulated(r.Insts, d)
	t.result(r)
	t.check("cell/"+c.name, r)
	return nil
}

// run simulates one cell for insts committed instructions. With a tracer,
// the policy and workload are wrapped and summarized as one span each.
func (w *cellWorkload) run(ctx context.Context, c *cellInput, tr *tracer, insts uint64, opts []core.Option) (*core.Result, error) {
	start := time.Now()
	g, err := c.generator()
	if err != nil {
		return nil, err
	}
	em := energy.NewModel(c.machine.CoreSize())
	pol, err := c.factory(c.machine, em)
	if err != nil {
		return nil, err
	}
	wl := core.FromGenerator(g)
	var (
		pp *policyProbe
		wp *workloadProbe
	)
	if tr != nil {
		pp = &policyProbe{Policy: pol, t: &hotTimer{}}
		wp = newWorkloadProbe(wl)
		pol, wl = pp, wp
	}
	newStart := time.Now()
	sim, err := core.NewWithWorkload(c.machine, wl, pol, em, append(opts, core.WithArena(w.arena))...)
	if err != nil {
		return nil, err
	}
	tr.add("core", "core.New", c.name, "cell", newStart, time.Now(), 0)
	r, err := sim.RunContext(ctx, insts)
	if tr != nil {
		tr.aggregate("lsq", "lsq.Policy", c.name, start, pp.t)
		tr.aggregate("trace", "Workload.NextBatch", c.name, start, wp.correct)
		tr.aggregate("trace", "Workload.WrongPath", c.name, start, wp.wrong)
	}
	return r, err
}

// verify re-runs the start of every cell with the lockstep architectural
// oracle attached: an independent in-order model fed the same window must
// agree with every commit. This checks held-out seeds, which have no
// committed digest.
func (w *cellWorkload) verify(ctx context.Context, t *tally) {
	for i := range w.cells {
		c := &w.cells[i]
		ref, err := c.generator()
		if err == nil {
			_, err = w.run(ctx, c, nil, w.sz.OracleInsts, []core.Option{core.WithOracle(ref)})
		}
		if err != nil {
			t.fail("cell %s under the oracle: %v", c.name, err)
			continue
		}
		t.ok()
	}
}
