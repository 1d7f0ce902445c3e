package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"dmdc/internal/core"
	"dmdc/internal/experiments"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/resultcache"
)

// tracer keeps the spans of a traced phase in memory; write exports them
// as Chrome trace_event JSON, which Perfetto opens beside the simulator's
// own pipeline traces. Methods on a nil tracer do nothing, so untraced
// code paths call them unconditionally.
type tracer struct {
	workload string
	start    time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

// span is one timed call into a layer. id is the cell name or the job's
// content address (the dmdcd job ID), so every span of one job shares it;
// parent names the enclosing span.
type span struct {
	layer, name, id, parent string
	start, end              time.Duration
	calls                   uint64 // calls summarized by an aggregate span; 0 for one call
}

// maxSpans bounds the memory a long traced phase can spend on spans.
const maxSpans = 400_000

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, start: time.Now()}
}

func (t *tracer) add(layer, name, id, parent string, start, end time.Time, calls uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{layer, name, id, parent, start.Sub(t.start), end.Sub(t.start), calls})
}

// begin opens a span; calling the returned function closes it.
func (t *tracer) begin(layer, name, id, parent string) func() {
	if t == nil {
		return func() {}
	}
	s := time.Now()
	return func() { t.add(layer, name, id, parent, s, time.Now(), 0) }
}

// write exports the spans: complete ("X") events, one track per id so a
// job's nested calls stack on its own row.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := []event{{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "dmdcbench " + t.workload}}}
	lanes := map[string]int{}
	for _, s := range t.spans {
		lane, ok := lanes[s.id]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.id] = lane
		}
		args := map[string]any{"workload": t.workload, "id": s.id, "parent": s.parent}
		if s.calls > 0 {
			args["calls"] = s.calls
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X", Pid: 1, Tid: lane,
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	out := map[string]any{"displayTimeUnit": "ms", "traceEvents": events}
	if t.dropped > 0 {
		out["otherData"] = map[string]any{"dropped_spans": t.dropped}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sampleEvery is the hot-path timing stride: hotTimer counts every call
// and times one in sampleEvery, so a traced cell pays a counter increment
// on most calls instead of two clock reads.
const sampleEvery = 64

// hotTimer accounts the calls into one hot-path layer of one cell.
type hotTimer struct {
	calls   uint64
	timed   uint64
	timedNs int64
}

// start counts a call and returns its start time when the call is sampled,
// the zero time otherwise.
func (h *hotTimer) start() time.Time {
	if h == nil {
		return time.Time{}
	}
	h.calls++
	if h.calls%sampleEvery != 0 {
		return time.Time{}
	}
	return time.Now()
}

func (h *hotTimer) stop(t0 time.Time) {
	if t0.IsZero() {
		return
	}
	h.timed++
	h.timedNs += int64(time.Since(t0))
}

// total estimates the layer's time: the mean sampled call less the cost of
// timing an empty call, times the calls made.
func (h *hotTimer) total(emptyNs float64) time.Duration {
	if h.timed == 0 {
		return 0
	}
	per := float64(h.timedNs)/float64(h.timed) - emptyNs
	return time.Duration(max(per, 0) * float64(h.calls))
}

var (
	emptyOnce sync.Once
	emptyNs   float64
)

// emptyCallNs measures what timing a call that does nothing costs.
func emptyCallNs() float64 {
	emptyOnce.Do(func() {
		var h hotTimer
		for i := 0; i < 200_000; i++ {
			h.stop(h.start())
		}
		emptyNs = float64(h.timedNs) / float64(h.timed)
	})
	return emptyNs
}

// aggregate emits one span summarizing a hot-path layer over a whole cell.
func (t *tracer) aggregate(layer, name, id string, start time.Time, h *hotTimer) {
	if t == nil || h == nil {
		return
	}
	t.add(layer, name, id, "cell", start, start.Add(h.total(emptyCallNs())), h.calls)
}

// policyProbe wraps an lsq.Policy. With t set it counts and samples every
// hook for a traced cell; with rec set it records the hook stream for the
// LSQ replay microbenchmark. Name, LoadCapacity and Report pass through.
type policyProbe struct {
	lsq.Policy
	t   *hotTimer
	rec *lsqRecording
}

func (p *policyProbe) LoadDispatch(op *lsq.MemOp) {
	p.rec.call(callLoadDispatch, op, 0)
	t0 := p.t.start()
	p.Policy.LoadDispatch(op)
	p.t.stop(t0)
}

func (p *policyProbe) LoadIssue(op *lsq.MemOp) {
	p.rec.call(callLoadIssue, op, 0)
	t0 := p.t.start()
	p.Policy.LoadIssue(op)
	p.t.stop(t0)
}

func (p *policyProbe) StoreResolve(op *lsq.MemOp) *lsq.Replay {
	p.rec.call(callStoreResolve, op, 0)
	t0 := p.t.start()
	r := p.Policy.StoreResolve(op)
	p.t.stop(t0)
	p.rec.returned(r)
	return r
}

func (p *policyProbe) StoreCommit(op *lsq.MemOp) {
	p.rec.call(callStoreCommit, op, 0)
	t0 := p.t.start()
	p.Policy.StoreCommit(op)
	p.t.stop(t0)
}

func (p *policyProbe) LoadCommit(op *lsq.MemOp) *lsq.Replay {
	p.rec.call(callLoadCommit, op, 0)
	t0 := p.t.start()
	r := p.Policy.LoadCommit(op)
	p.t.stop(t0)
	p.rec.returned(r)
	return r
}

func (p *policyProbe) InstCommit(age uint64) {
	p.rec.call(callInstCommit, nil, age)
	t0 := p.t.start()
	p.Policy.InstCommit(age)
	p.t.stop(t0)
}

func (p *policyProbe) Squash(fromAge uint64) {
	p.rec.call(callSquash, nil, fromAge)
	t0 := p.t.start()
	p.Policy.Squash(fromAge)
	p.t.stop(t0)
}

func (p *policyProbe) Recover(age uint64) {
	p.rec.call(callRecover, nil, age)
	t0 := p.t.start()
	p.Policy.Recover(age)
	p.t.stop(t0)
}

func (p *policyProbe) Invalidate(lineAddr uint64) {
	p.rec.call(callInvalidate, nil, lineAddr)
	t0 := p.t.start()
	p.Policy.Invalidate(lineAddr)
	p.t.stop(t0)
}

func (p *policyProbe) Tick() {
	p.rec.call(callTick, nil, 0)
	t0 := p.t.start()
	p.Policy.Tick()
	p.t.stop(t0)
}

// workloadProbe wraps a cell's instruction supply: committed-path fetch
// and wrong-path streams each feed a hotTimer. The inner workload must be
// a core.Batcher, as the synthetic generator is.
type workloadProbe struct {
	core.Workload
	batch          core.Batcher
	correct, wrong *hotTimer
	wp             wrongProbe // reused: the front end follows one wrong path at a time
}

func newWorkloadProbe(w core.Workload) *workloadProbe {
	b, _ := w.(core.Batcher)
	return &workloadProbe{Workload: w, batch: b, correct: &hotTimer{}, wrong: &hotTimer{}}
}

func (w *workloadProbe) Next() isa.Inst {
	t0 := w.correct.start()
	in := w.Workload.Next()
	w.correct.stop(t0)
	return in
}

func (w *workloadProbe) NextBatch(dst []isa.Inst) int {
	t0 := w.correct.start()
	n := w.batch.NextBatch(dst)
	w.correct.stop(t0)
	return n
}

func (w *workloadProbe) WrongPath(branchPC uint64, taken bool, salt uint64) core.InstSource {
	t0 := w.wrong.start()
	src := w.Workload.WrongPath(branchPC, taken, salt)
	w.wrong.stop(t0)
	if src == nil {
		// The core tests the interface against nil to stall fetch; a typed
		// nil wrapped here would read as a live stream.
		return nil
	}
	w.wp = wrongProbe{src: src, t: w.wrong}
	return &w.wp
}

type wrongProbe struct {
	src core.InstSource
	t   *hotTimer
}

func (w *wrongProbe) Next() isa.Inst {
	t0 := w.t.start()
	in := w.src.Next()
	w.t.stop(t0)
	return in
}

// storeProbe wraps a result store. It records each Get and Put as a span
// and, when onCell is set, reports each miss-to-Put interval: the latency
// of one simulated cell behind the cache.
type storeProbe struct {
	inner  resultcache.Store
	tr     *tracer
	parent string
	onCell func(key string, r *core.Result, d time.Duration)

	mu     sync.Mutex
	missAt map[string]time.Time
}

func (s *storeProbe) Get(key string) (*core.Result, bool) {
	t0 := time.Now()
	r, ok := s.inner.Get(key)
	s.tr.add("resultcache", "Get", key, s.parent, t0, time.Now(), 0)
	if !ok && s.onCell != nil {
		s.mu.Lock()
		if s.missAt == nil {
			s.missAt = map[string]time.Time{}
		}
		s.missAt[key] = t0
		s.mu.Unlock()
	}
	return r, ok
}

func (s *storeProbe) Put(key string, r *core.Result) error {
	t0 := time.Now()
	err := s.inner.Put(key, r)
	t1 := time.Now()
	s.tr.add("resultcache", "Put", key, s.parent, t0, t1, 0)
	if s.onCell != nil {
		s.mu.Lock()
		miss, ok := s.missAt[key]
		delete(s.missAt, key)
		s.mu.Unlock()
		if ok {
			s.onCell(key, r, t1.Sub(miss))
		}
	}
	return err
}

func (s *storeProbe) Stats() resultcache.Stats { return s.inner.Stats() }

// GetRaw forwards raw entry reads, which a dmdcd server needs from its
// store to answer peers.
func (s *storeProbe) GetRaw(key string) ([]byte, bool) {
	rg, ok := s.inner.(interface{ GetRaw(string) ([]byte, bool) })
	if !ok {
		return nil, false
	}
	return rg.GetRaw(key)
}

// backendProbe is an experiments.Backend that runs each job through inner
// (in process when inner is nil), records it as a span, and reports its
// latency to onRun.
type backendProbe struct {
	inner experiments.Backend
	tr    *tracer
	layer string
	name  string
	onRun func(r *core.Result, d time.Duration, err error)
}

func (b *backendProbe) Name() string { return "probe:" + b.name }

func (b *backendProbe) Run(ctx context.Context, spec experiments.JobSpec) (*core.Result, error) {
	t0 := time.Now()
	var (
		r   *core.Result
		err error
	)
	if b.inner == nil {
		r, err = experiments.ExecuteJob(ctx, spec)
	} else {
		r, err = b.inner.Run(ctx, spec)
	}
	t1 := time.Now()
	if b.tr != nil {
		b.tr.add(b.layer, b.name, spec.CacheKey(), "", t0, t1, 0)
	}
	if b.onRun != nil {
		b.onRun(r, t1.Sub(t0), err)
	}
	return r, err
}

// peerProbe wraps a resultcache.Peer, recording each fetch as a span.
type peerProbe struct {
	inner resultcache.Peer
	tr    *tracer
}

func (p *peerProbe) Name() string { return p.inner.Name() }

func (p *peerProbe) FetchEntry(ctx context.Context, key string) ([]byte, string, error) {
	t0 := time.Now()
	body, sum, err := p.inner.FetchEntry(ctx, key)
	p.tr.add("dserve", "peer fetch", key, "Get", t0, time.Now(), 0)
	return body, sum, err
}

// lsqRecording is a policy hook stream recorded from a real run. Replaying
// it into a fresh policy of the same kind reproduces every call — the
// MemOp exactly as the core passed it — and must reproduce every replay
// the policy demanded.
type lsqRecording struct {
	policy string
	calls  []lsqCall
	ops    []lsq.MemOp // the op of each op call, as it was before the call
	slots  map[*lsq.MemOp]int32
}

type callKind uint8

const (
	callLoadDispatch callKind = iota
	callLoadIssue
	callStoreResolve
	callStoreCommit
	callLoadCommit
	callInstCommit
	callSquash
	callRecover
	callInvalidate
	callTick
)

type lsqCall struct {
	kind   callKind
	hasRet bool
	slot   int32 // the core's MemOp slot, for op calls
	op     int32 // index into ops, -1 for calls without an op
	arg    uint64
	ret    lsq.Replay
}

func newRecording(policy string) *lsqRecording {
	return &lsqRecording{policy: policy, slots: map[*lsq.MemOp]int32{}}
}

func (r *lsqRecording) call(k callKind, op *lsq.MemOp, arg uint64) {
	if r == nil {
		return
	}
	c := lsqCall{kind: k, op: -1, arg: arg}
	if op != nil {
		slot, ok := r.slots[op]
		if !ok {
			slot = int32(len(r.slots))
			r.slots[op] = slot
		}
		c.slot, c.op = slot, int32(len(r.ops))
		r.ops = append(r.ops, *op)
	}
	r.calls = append(r.calls, c)
}

func (r *lsqRecording) returned(rp *lsq.Replay) {
	if r == nil || rp == nil {
		return
	}
	c := &r.calls[len(r.calls)-1]
	c.hasRet, c.ret = true, *rp
}

// replay drives pol through the recorded stream and returns the number of
// calls made. Each op slot is one MemOp the policy may keep a pointer to,
// as the core's slab is.
func (r *lsqRecording) replay(pol lsq.Policy) (int, error) {
	slots := make([]lsq.MemOp, len(r.slots))
	for i := range r.calls {
		c := &r.calls[i]
		var op *lsq.MemOp
		if c.op >= 0 {
			op = &slots[c.slot]
			*op = r.ops[c.op]
		}
		var got *lsq.Replay
		switch c.kind {
		case callLoadDispatch:
			pol.LoadDispatch(op)
		case callLoadIssue:
			pol.LoadIssue(op)
		case callStoreResolve:
			got = pol.StoreResolve(op)
		case callStoreCommit:
			pol.StoreCommit(op)
		case callLoadCommit:
			got = pol.LoadCommit(op)
		case callInstCommit:
			pol.InstCommit(c.arg)
		case callSquash:
			pol.Squash(c.arg)
		case callRecover:
			pol.Recover(c.arg)
		case callInvalidate:
			pol.Invalidate(c.arg)
		case callTick:
			pol.Tick()
		}
		if (got != nil) != c.hasRet || (got != nil && *got != c.ret) {
			return i, fmt.Errorf("lsq %s replay: call %d returned %+v, recorded %+v (recorded: %v)",
				r.policy, i, got, c.ret, c.hasRet)
		}
	}
	return len(r.calls), nil
}
