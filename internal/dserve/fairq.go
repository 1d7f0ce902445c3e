package dserve

// tenantQ is one tenant's admission state: a bounded FIFO of admitted
// jobs plus the deficit-round-robin accounting that shares workers
// fairly. Fields are guarded by Server.mu.
type tenantQ struct {
	name   string
	weight int // DRR quantum: jobs served per scheduling round
	quota  int // max concurrently running jobs; 0 = unlimited
	depth  int // queue capacity

	queue   []*jobState
	deficit int
	running int

	admitted uint64
	served   uint64
	rejected uint64
}

// drr schedules admitted jobs across tenants by deficit round robin:
// each visit grants a tenant `weight` units of deficit, one unit buys one
// job, and the cursor only advances when the tenant's budget or queue is
// exhausted — so under saturating load tenants are served in proportion
// to their weights, and any tenant with queued work is served at least
// once per round (no starvation). Jobs are unit-cost (one simulation),
// which makes the quantum exactly the per-round job count.
//
// drr is not self-locking; Server.mu guards every method.
type drr struct {
	tenants map[string]*tenantQ
	ring    []*tenantQ
	cursor  int
	// visiting marks that ring[cursor] has already received this visit's
	// quantum, so consecutive pops within one visit do not re-grant it.
	visiting bool
	queued   int
}

func newDRR() *drr {
	return &drr{tenants: make(map[string]*tenantQ)}
}

// tenant returns the named tenant's queue, creating it on first sight
// with the given parameters. Tenants are never removed: the set is
// bounded by the distinct tenant names a deployment actually uses.
func (d *drr) tenant(name string, weight, quota, depth int) *tenantQ {
	if tq, ok := d.tenants[name]; ok {
		return tq
	}
	if weight < 1 {
		weight = 1
	}
	tq := &tenantQ{name: name, weight: weight, quota: quota, depth: depth}
	d.tenants[name] = tq
	d.ring = append(d.ring, tq)
	return tq
}

// push appends a job to its tenant's queue. It never refuses: the
// server's admission control checks the tenant's depth before it journals
// a job, and a resumed job is re-queued past the bound.
func (d *drr) push(tq *tenantQ, st *jobState) {
	tq.queue = append(tq.queue, st)
	d.queued++
}

// pop dequeues the next job under DRR, or returns nil when no tenant is
// eligible (all queues empty, or every queued tenant is at its running
// quota). The caller owns the returned job's `running` decrement.
func (d *drr) pop() (*jobState, *tenantQ) {
	if d.queued == 0 || len(d.ring) == 0 {
		return nil, nil
	}
	n := len(d.ring)
	advance := func() {
		d.cursor = (d.cursor + 1) % n
		d.visiting = false
	}
	// Two full sweeps bound the scan: the first may only be refilling
	// deficits, the second then serves — unless every queued tenant is
	// quota-bound, in which case nothing is eligible yet.
	for i := 0; i < 2*n; i++ {
		tq := d.ring[d.cursor]
		if !d.visiting {
			tq.deficit += tq.weight
			d.visiting = true
		}
		if len(tq.queue) == 0 || (tq.quota > 0 && tq.running >= tq.quota) {
			// An empty or quota-bound tenant forfeits its deficit: it is
			// not competing this round, and banked deficit would otherwise
			// buy it an unfair burst later.
			tq.deficit = 0
			advance()
			continue
		}
		if tq.deficit < 1 {
			advance()
			continue
		}
		tq.deficit--
		st := tq.queue[0]
		tq.queue[0] = nil // release the reference for GC
		tq.queue = tq.queue[1:]
		d.queued--
		tq.running++
		tq.served++
		return st, tq
	}
	return nil, nil
}

// drain empties every queue, returning the evicted jobs (used by Close to
// give each admitted-unstarted job a terminal status instead of silently
// dropping it).
func (d *drr) drain() []*jobState {
	var out []*jobState
	for _, tq := range d.ring {
		for _, st := range tq.queue {
			out = append(out, st)
		}
		tq.queue = nil
	}
	d.queued = 0
	return out
}
