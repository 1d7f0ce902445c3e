package dserve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmdc/internal/core"
	"dmdc/internal/experiments"
	"dmdc/internal/jobstore"
	"dmdc/internal/resultcache"
	"dmdc/internal/telemetry"
)

// ServerConfig sizes a simulation server.
type ServerConfig struct {
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds each tenant's admitted-but-unstarted jobs; a full
	// tenant queue rejects that tenant's submissions (backpressure)
	// without affecting other tenants. 0 means 4×Workers (min 16).
	QueueDepth int
	// Tenants shapes per-tenant weights and quotas.
	Tenants TenantConfig
	// Cache, when non-nil, answers non-soundness jobs from the persistent
	// result store and writes every computed result back. Any Store works:
	// a disk *resultcache.Cache, a fleet *resultcache.Tiered, or a test
	// fake. GET /v1/cache additionally serves raw entries to peers when
	// the store (or its local tier) can produce them.
	Cache resultcache.Store
	// Store, when non-nil, journals every admission and deterministic
	// outcome. NewServer replays it: a job whose result is in the cache is
	// done, a journaled failure stays failed, and every other job is
	// re-queued under its original tenant and content-addressed ID, so
	// long-polling clients reconnect and get the identical answer. The
	// caller owns Open/Close of the store; its directory lock makes this
	// server the store's only writer.
	Store *jobstore.Store
	// Instance labels this server in /v1/version and /v1/healthz. Empty
	// means "pid-<os pid>".
	Instance string
	// Telemetry, when non-nil, attaches a per-job sampler to every
	// simulated job and serves the registry at /v1/telemetry, keyed by job
	// ID. Zero fields take the telemetry defaults.
	Telemetry *telemetry.Config
}

// jobState is one job's lifecycle; guarded by Server.mu except for the
// immutable id/spec/tenant and the done channel (closed exactly once,
// after the terminal state is published).
type jobState struct {
	id     string
	spec   experiments.JobSpec
	tenant string
	tq     *tenantQ

	status    Status
	cached    bool
	errMsg    string
	retryable bool
	result    *core.Result
	done      chan struct{}
}

// Server executes simulation jobs behind the HTTP/JSON API described in
// the package comment. Create with NewServer, serve via ServeHTTP (it is
// an http.Handler), stop with Close.
type Server struct {
	workers  int
	queueCap int
	tcfg     TenantConfig
	cache    resultcache.Store
	store    *jobstore.Store
	instance string
	telCfg   *telemetry.Config
	reg      *telemetry.Registry

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mux    *http.ServeMux

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	jobs   map[string]*jobState
	sched  *drr

	executed        atomic.Uint64
	cacheHits       atomic.Uint64
	rejected        atomic.Uint64
	journalErrs     atomic.Uint64
	resumedDone     uint64 // written once in NewServer, before workers start
	resumedRequeued uint64
}

// NewServer builds a server, replays cfg.Store if present, and starts the
// worker pool. The only error source is journal replay/append during
// resume — a fresh or store-less server cannot fail.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
		if cfg.QueueDepth < 16 {
			cfg.QueueDepth = 16
		}
	}
	if cfg.Instance == "" {
		cfg.Instance = fmt.Sprintf("pid-%d", os.Getpid())
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		workers:  cfg.Workers,
		queueCap: cfg.QueueDepth,
		tcfg:     cfg.Tenants,
		cache:    cfg.Cache,
		store:    cfg.Store,
		instance: cfg.Instance,
		telCfg:   cfg.Telemetry,
		ctx:      ctx,
		cancel:   cancel,
		jobs:     make(map[string]*jobState),
		sched:    newDRR(),
	}
	s.cond = sync.NewCond(&s.mu)
	if s.telCfg != nil {
		s.reg = telemetry.NewRegistry()
		s.reg.SetCounterSource(s.counterSnapshot)
	}
	s.routes()
	if s.store != nil {
		if err := s.resume(); err != nil {
			cancel()
			return nil, err
		}
	}
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// resume rebuilds the job table from the journal. A drain and a crash
// leave the same journal, so every job takes one of three paths: a cache
// hit means done, a journaled failure means failed, and anything else is
// re-queued under its original tenant, in admission order.
func (s *Server) resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, jr := range s.store.Jobs() {
		var spec experiments.JobSpec
		if err := json.Unmarshal(jr.Spec, &spec); err != nil {
			return fmt.Errorf("dserve: resume job %s: %w", jr.ID, err)
		}
		st := &jobState{
			id: jr.ID, spec: spec, tenant: jr.Tenant,
			status: StatusQueued, done: make(chan struct{}),
		}
		st.tq = s.tenantLocked(jr.Tenant)
		s.jobs[jr.ID] = st

		// A cache hit is the only completion certificate: cache.Put happens
		// before the done record is appended, so a crash between the two
		// leaves an admitted job whose work is done, while a done record
		// alone (a soundness job, or a lost cache) proves nothing.
		if s.cache != nil && !spec.Soundness {
			if hit, ok := s.cache.Get(jr.ID); ok {
				st.status = StatusDone
				st.result = hit
				st.cached = true
				close(st.done)
				s.resumedDone++
				continue
			}
		}
		if jr.State == jobstore.StateFailed {
			// Only deterministic failures are journaled, and they reproduce
			// identically; keep the answer.
			st.status = StatusFailed
			st.errMsg = jr.Error
			close(st.done)
			s.resumedDone++
			continue
		}
		// Re-queue past the depth bound: journaled admissions are never
		// dropped.
		s.sched.pushForce(st.tq, st)
		st.tq.admitted++
		s.resumedRequeued++
	}
	return nil
}

// tenantLocked returns (creating if needed) the tenant's queue.
func (s *Server) tenantLocked(name string) *tenantQ {
	if name == "" {
		name = DefaultTenant
	}
	return s.sched.tenant(name, s.tcfg.weightFor(name), s.tcfg.Quota, s.queueCap)
}

// Close stops accepting jobs, evicts admitted-unstarted jobs with a
// terminal retryable rejection (so long-pollers wake immediately and
// dispatchers re-dispatch instead of hanging until timeout), cancels
// in-flight simulations (they fail with a retryable shutdown error), and
// waits for the workers to exit. Evicted and cancelled jobs stay
// "admitted" in the journal on purpose: the store's next owner re-queues
// and finishes them, exactly as after a crash.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cancel()
	for _, st := range s.sched.drain() {
		st.status = StatusRejected
		st.errMsg = "server closing: job was admitted but never started"
		st.retryable = true
		st.tq.rejected++
		s.rejected.Add(1)
		close(st.done)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// worker pulls jobs off the fair scheduler until the server closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		st := s.dequeue()
		if st == nil {
			return
		}
		s.execute(st)
		s.mu.Lock()
		st.tq.running--
		s.mu.Unlock()
		// A freed quota slot may unblock a quota-bound tenant.
		s.cond.Broadcast()
	}
}

// dequeue blocks until the DRR scheduler yields a job or the server
// closes (nil).
func (s *Server) dequeue() *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if st, _ := s.sched.pop(); st != nil {
			return st
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// journal appends one outcome record, best-effort: an append failure
// degrades durability (counted, visible in /v1/healthz) but must not
// fail the job — the simulation result is still correct.
func (s *Server) journal(rec jobstore.Record) {
	if s.store == nil {
		return
	}
	if err := s.store.Append(rec); err != nil {
		s.journalErrs.Add(1)
	}
}

// execute runs one admitted job to its terminal state.
func (s *Server) execute(st *jobState) {
	if err := s.ctx.Err(); err != nil {
		s.finish(st, nil, fmt.Sprintf("server shutting down: %v", err), true)
		return
	}
	if s.cache != nil && !st.spec.Soundness {
		// Late re-check: between admission and execution a peer (or a
		// Tiered store's fetch) may have landed this result. A warm fleet
		// run must re-simulate nothing, even for jobs that were queued
		// before the peer's answer arrived.
		if hit, ok := s.cache.Get(st.id); ok {
			s.cacheHits.Add(1)
			s.mu.Lock()
			st.cached = true
			s.mu.Unlock()
			s.finish(st, hit, "", false)
			return
		}
	}
	s.mu.Lock()
	st.status = StatusRunning
	s.mu.Unlock()

	var sampler *telemetry.Sampler
	if s.telCfg != nil {
		// Registered before the run starts so /v1/telemetry?job=ID watches
		// the series fill in while the job executes.
		sampler = telemetry.New(*s.telCfg)
		s.reg.Register(st.id, sampler)
	}
	res, err := experiments.ExecuteJobWithSampler(s.ctx, st.spec, sampler)
	if err != nil {
		// A cancellation is environmental — another backend can still run
		// the job. Anything else is deterministic: the same spec would
		// fail the same way anywhere.
		retryable := s.ctx.Err() != nil
		s.finish(st, nil, err.Error(), retryable)
		return
	}
	s.executed.Add(1)
	if s.cache != nil && !st.spec.Soundness {
		// Best-effort, but ordered before the journal's done record: once
		// "done" is durable, the result must be durable too (resume treats
		// a cache hit as the job's completion certificate).
		s.cache.Put(st.id, res)
	}
	s.finish(st, res, "", false)
}

// finish publishes a job's terminal state, journals it, and wakes every
// waiter.
func (s *Server) finish(st *jobState, res *core.Result, errMsg string, retryable bool) {
	s.mu.Lock()
	st.result = res
	st.errMsg = errMsg
	st.retryable = retryable
	if errMsg == "" {
		st.status = StatusDone
	} else {
		st.status = StatusFailed
	}
	s.mu.Unlock()
	if errMsg == "" {
		s.journal(jobstore.Record{State: jobstore.StateDone, ID: st.id})
	} else if !retryable {
		// Retryable failures (shutdown, cancellation) stay admitted in the
		// journal so a restart re-queues them; only deterministic failures
		// are worth persisting.
		s.journal(jobstore.Record{State: jobstore.StateFailed, ID: st.id, Error: errMsg})
	}
	close(st.done)
}

// admit registers one submitted spec under a tenant and returns its wire
// status: an existing job (idempotent resubmit, whichever tenant got
// there first), a cache answer, a queued admission, or a backpressure
// rejection.
func (s *Server) admit(spec experiments.JobSpec, tenant string) JobStatus {
	if err := spec.Validate(); err != nil {
		// Invalid specs are rejected before they get an ID of their own:
		// the error is deterministic and the client must fix the spec.
		return JobStatus{ID: spec.CacheKey(), Status: StatusFailed, Error: err.Error()}
	}
	id := spec.CacheKey()
	s.mu.Lock()
	if st, ok := s.jobs[id]; ok {
		js := s.statusLocked(st)
		s.mu.Unlock()
		return js
	}
	s.mu.Unlock()

	// Probe the store outside the server lock: a Tiered store may fetch
	// from peers, and a network round-trip must never stall admission of
	// unrelated jobs. (Tiered singleflights, so concurrent identical
	// admits still cost one fetch.)
	var hit *core.Result
	if s.cache != nil && !spec.Soundness {
		hit, _ = s.cache.Get(id)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.jobs[id]; ok {
		return s.statusLocked(st) // identical admit raced us while probing
	}
	if s.closed {
		s.rejected.Add(1)
		return JobStatus{ID: id, Status: StatusRejected, Tenant: tenant, Error: "server closed", Retryable: true}
	}
	tq := s.tenantLocked(tenant)
	st := &jobState{id: id, spec: spec, tenant: tenant, tq: tq, status: StatusQueued, done: make(chan struct{})}
	if hit != nil {
		s.cacheHits.Add(1)
		st.status = StatusDone
		st.result = hit
		st.cached = true
		close(st.done)
		s.jobs[id] = st
		return s.statusLocked(st)
	}
	if tq.depth > 0 && len(tq.queue) >= tq.depth {
		tq.rejected++
		s.rejected.Add(1)
		return JobStatus{ID: id, Status: StatusRejected, Tenant: tenant,
			Error: fmt.Sprintf("tenant %q queue full (%d)", tq.name, tq.depth), Retryable: true}
	}
	if s.store != nil {
		// Durability before visibility: the admission must survive a crash
		// before the client is told "queued".
		specJSON, err := json.Marshal(spec)
		if err == nil {
			err = s.store.Append(jobstore.Record{
				State: jobstore.StateAdmitted, ID: id, Tenant: tq.name, Spec: specJSON,
			})
		}
		if err != nil {
			s.journalErrs.Add(1)
			tq.rejected++
			s.rejected.Add(1)
			return JobStatus{ID: id, Status: StatusRejected, Tenant: tenant,
				Error: fmt.Sprintf("journal admission: %v", err), Retryable: true}
		}
	}
	s.sched.push(tq, st)
	tq.admitted++
	s.jobs[id] = st
	s.cond.Signal()
	return s.statusLocked(st)
}

// statusLocked snapshots a job's wire status; callers hold mu.
func (s *Server) statusLocked(st *jobState) JobStatus {
	return JobStatus{
		ID:        st.id,
		Status:    st.status,
		Tenant:    st.tenant,
		Cached:    st.cached,
		Error:     st.errMsg,
		Retryable: st.retryable,
	}
}

// lookup returns a job by id.
func (s *Server) lookup(id string) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.jobs[id]
	return st, ok
}

// routes wires the handler table.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/telemetry", s.handleTelemetry)
}

// ServeHTTP dispatches to the /v1 API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// maxSubmitBytes bounds a submit body; a full-matrix batch of specs is a
// few hundred KB, so 32 MiB is generous without being unbounded.
const maxSubmitBytes = 32 << 20

// maxTenantName bounds the tenant header; it is a queue label, not data.
const maxTenantName = 64

// tenantFrom extracts and sanity-checks the submitting tenant.
func tenantFrom(r *http.Request) (string, error) {
	t := r.Header.Get(TenantHeader)
	if t == "" {
		return DefaultTenant, nil
	}
	if len(t) > maxTenantName {
		return "", fmt.Errorf("tenant name longer than %d bytes", maxTenantName)
	}
	for _, c := range t {
		if c < 0x21 || c > 0x7e {
			return "", fmt.Errorf("tenant name has non-printable or space characters")
		}
	}
	return t, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeBadRequest, false, fmt.Errorf("bad %s: %w", TenantHeader, err))
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, CodeBadRequest, false, fmt.Errorf("decode submit: %w", err))
		return
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, CodeBadRequest, false, fmt.Errorf("submit has no jobs"))
		return
	}
	resp := ListResponse{Jobs: make([]JobStatus, 0, len(req.Jobs))}
	rejected := 0
	for _, spec := range req.Jobs {
		js := s.admit(spec, tenant)
		if js.Status == StatusRejected {
			rejected++
		}
		resp.Jobs = append(resp.Jobs, js)
	}
	code := http.StatusOK
	if rejected == len(req.Jobs) {
		// Nothing was admitted: surface the backpressure at the HTTP layer
		// too, with a load-derived Retry-After so plain clients (and the
		// Dispatcher) back off for about as long as the queue needs to
		// drain instead of hammering a fixed schedule.
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeJSON(w, code, resp)
}

// retryAfterSeconds estimates how long a rejected client should wait:
// proportional to the queue backlog per worker, clamped to [1, 30].
func (s *Server) retryAfterSeconds() int {
	s.mu.Lock()
	backlog := s.sched.queued
	s.mu.Unlock()
	secs := 1 + backlog/(2*s.workers)
	if secs > 30 {
		secs = 30
	}
	return secs
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := ListResponse{Jobs: make([]JobStatus, 0, len(s.jobs))}
	for _, st := range s.jobs {
		resp.Jobs = append(resp.Jobs, s.statusLocked(st))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// maxWait caps ?wait= long polls so a dead client cannot pin a handler.
const maxWait = time.Minute

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, CodeNotFound, false, fmt.Errorf("unknown job"))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			httpError(w, http.StatusBadRequest, CodeBadRequest, false, fmt.Errorf("bad wait: %w", err))
			return
		}
		if wait > maxWait {
			wait = maxWait
		}
		// Long poll: return early on a terminal state, else at the
		// deadline with whatever state the job is in.
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-st.done:
		case <-t.C:
		case <-r.Context().Done():
		}
	}
	s.mu.Lock()
	js := s.statusLocked(st)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, js)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, CodeNotFound, false, fmt.Errorf("unknown job"))
		return
	}
	s.mu.Lock()
	status, res, errMsg := st.status, st.result, st.errMsg
	s.mu.Unlock()
	switch status {
	case StatusDone:
		writeJSON(w, http.StatusOK, res)
	case StatusFailed:
		httpError(w, http.StatusInternalServerError, CodeJobFailed, false, fmt.Errorf("job failed: %s", errMsg))
	default:
		httpError(w, http.StatusConflict, CodeConflict, true, fmt.Errorf("job %s", status))
	}
}

// Stats snapshots the server's health, including the per-tenant
// depth/served breakdown. It is the same structure /v1/healthz serves.
func (s *Server) Stats() Health {
	s.mu.Lock()
	h := Health{
		OK:       !s.closed,
		Workers:  s.workers,
		QueueCap: s.queueCap,
		Queued:   s.sched.queued,
		Tenants:  make(map[string]TenantHealth, len(s.sched.ring)),
	}
	for _, st := range s.jobs {
		switch st.status {
		case StatusRunning:
			h.Running++
		case StatusDone:
			h.Done++
		case StatusFailed:
			h.Failed++
		}
	}
	for _, tq := range s.sched.ring {
		h.Tenants[tq.name] = TenantHealth{
			Weight:   tq.weight,
			Quota:    tq.quota,
			QueueCap: tq.depth,
			Queued:   len(tq.queue),
			Running:  tq.running,
			Admitted: tq.admitted,
			Served:   tq.served,
			Rejected: tq.rejected,
		}
	}
	h.ResumedDone = s.resumedDone
	h.ResumedRequeued = s.resumedRequeued
	s.mu.Unlock()
	h.Executed = s.executed.Load()
	h.CacheHits = s.cacheHits.Load()
	h.Rejected = s.rejected.Load()
	h.JournalErrors = s.journalErrs.Load()
	h.Instance = s.instance
	if _, tiered := s.cache.(*resultcache.Tiered); tiered {
		stats := s.cache.Stats()
		h.PeerCache = &stats
	}
	return h
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// counterSnapshot feeds the telemetry registry's service-counter view:
// flat name → value, one row per global counter plus per-tenant
// depth/served gauges.
func (s *Server) counterSnapshot() map[string]int64 {
	h := s.Stats()
	out := map[string]int64{
		"jobs_executed":   int64(h.Executed),
		"jobs_cache_hits": int64(h.CacheHits),
		"jobs_rejected":   int64(h.Rejected),
		"queue_depth":     int64(h.Queued),
		"journal_errors":  int64(h.JournalErrors),
	}
	if pc := h.PeerCache; pc != nil {
		out["peer_cache_hits"] = int64(pc.PeerHits)
		out["peer_cache_errors"] = int64(pc.PeerErrors)
		out["peer_cache_negative_hits"] = int64(pc.NegativeHits)
	}
	for name, th := range h.Tenants {
		out["tenant_"+name+"_queued"] = int64(th.Queued)
		out["tenant_"+name+"_running"] = int64(th.Running)
		out["tenant_"+name+"_admitted"] = int64(th.Admitted)
		out["tenant_"+name+"_served"] = int64(th.Served)
		out["tenant_"+name+"_rejected"] = int64(th.Rejected)
	}
	return out
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		httpError(w, http.StatusNotFound, CodeUnavailable, false, fmt.Errorf("telemetry disabled (start the server with a telemetry config)"))
		return
	}
	s.reg.ServeHTTP(w, r)
}

// Executed counts simulations actually run (cache hits excluded).
func (s *Server) Executed() uint64 { return s.executed.Load() }

// writeJSON renders v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// httpError renders the structured ErrorEnvelope every endpoint shares.
func httpError(w http.ResponseWriter, status int, code string, retryable bool, err error) {
	writeJSON(w, status, ErrorEnvelope{Code: code, Message: err.Error(), Retryable: retryable})
}

// rawGetter is the optional raw-entry access a Store provides for the
// peer cache endpoint (the disk Cache and the local tier of a Tiered
// store both do).
type rawGetter interface {
	GetRaw(key string) ([]byte, bool)
}

// cacheKeyShape sanity-checks a /v1/cache/{key} path element: keys are
// hex SHA-256 digests, nothing else reaches the store.
func cacheKeyShape(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	for _, c := range key {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
		default:
			return false
		}
	}
	return true
}

// handleCacheGet serves one raw cache entry to a fetching peer, with the
// body hash and format version in headers so the peer verifies the
// transfer end-to-end before trusting it. Peer traffic bypasses the
// hit/miss counters — it is accounted on the requesting instance.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !cacheKeyShape(key) {
		httpError(w, http.StatusBadRequest, CodeBadRequest, false, fmt.Errorf("cache key must be a hex sha256"))
		return
	}
	rg, ok := s.cache.(rawGetter)
	if s.cache == nil || !ok {
		httpError(w, http.StatusNotFound, CodeUnavailable, false, fmt.Errorf("no raw-capable result cache on this instance"))
		return
	}
	body, ok := rg.GetRaw(key)
	if !ok {
		httpError(w, http.StatusNotFound, CodeNotFound, false, fmt.Errorf("cache miss"))
		return
	}
	sum := sha256.Sum256(body)
	w.Header().Set(CacheSumHeader, hex.EncodeToString(sum[:]))
	w.Header().Set(CacheFormatHeader, strconv.Itoa(resultcache.FormatVersion))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// handleVersion reports the server's version tuple.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, VersionInfo{
		Protocol:      ProtocolVersion,
		CacheFormat:   resultcache.FormatVersion,
		JournalFormat: jobstore.FormatVersion,
		Instance:      s.instance,
	})
}
