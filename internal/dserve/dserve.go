// Package dserve turns the experiment harness into a sharded simulation
// service. It has two halves:
//
//   - Server exposes an HTTP/JSON job API over the existing execution
//     machinery (experiments.ExecuteJob, the persistent result cache, the
//     telemetry registry): clients submit batches of experiments.JobSpec,
//     poll or long-poll per-job status, and fetch results. Jobs are
//     content-addressed by their cache key, so resubmitting an identical
//     spec is idempotent — it joins the existing job or is answered
//     straight from the cache. Admission is multi-tenant: the
//     X-DMDC-Tenant header (default "default") selects a per-tenant
//     bounded queue, workers are shared by weighted deficit-round-robin
//     across tenants, and per-tenant quotas bound concurrently running
//     jobs. With a jobstore attached, every admission and deterministic
//     outcome is journaled, so a crashed or restarted server resumes or
//     re-queues every incomplete job under the same content-addressed
//     ID — a client long-polling /v1/jobs/{id}?wait reconnects and gets
//     the identical answer.
//
//   - Dispatcher routes a stream of jobs round-robin across Backends
//     (dmdcd servers via Remote), with a bounded in-flight window per
//     backend for backpressure and per-job retry with exponential backoff
//     (honoring Retry-After hints from overloaded servers) that steers
//     each retry away from the backend that just failed. It caches
//     nothing itself: a Suite's result cache sits in front of it and each
//     server's cache behind it, so a killed server or dropped connection
//     never loses or duplicates a result.
//
// Simulation is deterministic, which is what makes the whole design safe:
// any backend executing a spec produces the byte-identical Result, so
// retries, cache hits, and crash-restart re-executions are
// interchangeable and results can be deduplicated by content address
// alone.
//
// Wire protocol (bodies are JSON, apart from the cache entries):
//
//	POST /v1/jobs            {"jobs":[JobSpec,...]} → {"jobs":[JobStatus,...]}
//	                         X-DMDC-Tenant names the submitting tenant;
//	                         a fully rejected batch is a 503 with Retry-After
//	                         whose body still lists the per-job statuses
//	GET  /v1/jobs            → {"jobs":[JobStatus,...]} (no results)
//	GET  /v1/jobs/{id}       → JobStatus; ?wait=10s long-polls for a terminal state
//	GET  /v1/jobs/{id}/result → the core.Result JSON (404 unknown, 409 not done)
//	GET  /v1/cache/{key}     → raw binary result-cache entry; the X-DMDC-Cache-Sha256
//	                         header carries the body's hex SHA-256 and
//	                         X-DMDC-Cache-Format the cache format version,
//	                         so the fetching peer verifies before trusting
//	GET  /v1/version         → VersionInfo (wire protocol + cache/journal
//	                         format versions and the instance label)
//	GET  /v1/telemetry       → telemetry registry index (+ service counters);
//	                         ?job={id} one job's series
//	GET  /v1/healthz         → Health (per-tenant depth/served included)
//
// Apart from that 503, every error a /v1 handler returns carries one
// structured ErrorEnvelope ({code, message, retryable}), so clients branch on a
// stable machine-readable code instead of string-matching messages.
package dserve

import (
	"errors"
	"fmt"
	"time"

	"dmdc/internal/experiments"
	"dmdc/internal/resultcache"
)

// DefaultTenant is the tenant jobs land on when the submit carries no
// X-DMDC-Tenant header.
const DefaultTenant = "default"

// TenantHeader is the HTTP header naming the submitting tenant.
const TenantHeader = "X-DMDC-Tenant"

// ProtocolVersion identifies the /v1 wire protocol that GET /v1/version
// reports. Bump it on any incompatible change to routes, bodies, or the
// error envelope. Nothing compares it automatically: what fences version
// skew is the X-DMDC-Cache-Format check on every peer fetch, DecodeEntry's
// magic and version check on every fetched body, and the job store's
// MANIFEST.
//
// History:
//
//	1 — JSON bodies throughout
//	2 — GET /v1/cache/{key} serves the binary entry encoding
//	    (resultcache.EncodeEntry) as application/octet-stream; a version-1
//	    peer's JSON entries fail DecodeEntry and count as peer errors
//	3 — the GET /v1/telemetry index drops "counters"; service counters
//	    are served only by GET /v1/healthz (Health, TenantHealth)
const ProtocolVersion = 3

// Cache wire headers: the hex SHA-256 of the entry body and the
// resultcache format version it was encoded under. The fetching peer
// verifies both — a transfer that loses bytes or crosses a format
// boundary fails closed.
const (
	CacheSumHeader    = "X-DMDC-Cache-Sha256"
	CacheFormatHeader = "X-DMDC-Cache-Format"
)

// Error codes carried by ErrorEnvelope.Code. Stable: clients branch on
// them, so renaming one is a protocol change.
const (
	CodeBadRequest  = "bad_request" // malformed body, header, or parameter
	CodeNotFound    = "not_found"   // unknown job or cache key
	CodeConflict    = "conflict"    // result requested before the job finished
	CodeJobFailed   = "job_failed"  // the simulation itself failed
	CodeUnavailable = "unavailable" // feature not enabled on this instance
)

// ErrorEnvelope is the one structured error body the /v1 handlers
// return for non-2xx responses.
type ErrorEnvelope struct {
	// Code is a stable machine-readable discriminator (Code* constants).
	Code string `json:"code"`
	// Message is the human-readable failure description.
	Message string `json:"message"`
	// Retryable hints whether the same request may succeed later (a
	// result asked for before its job finished) rather than
	// deterministically failing again (bad spec, failed simulation).
	Retryable bool `json:"retryable"`
}

// VersionInfo is the body of GET /v1/version: the wire protocol, cache
// entry format, and journal format versions, which gate different
// couplings (API calls, peer cache fetch, shared store handoff).
type VersionInfo struct {
	Protocol      int `json:"protocol"`
	CacheFormat   int `json:"cache_format"`
	JournalFormat int `json:"journal_format"`
	// Instance is the server's self-chosen label.
	Instance string `json:"instance,omitempty"`
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states. Rejected appears in submit responses (the
// tenant's queue was full and the job was not admitted — back off and
// resubmit) and as the terminal state of admitted-but-unstarted jobs
// evicted by a server shutdown; either way it is retryable.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusRejected Status = "rejected"
)

// Terminal reports whether a job in this state will never change again.
// Rejected is terminal: the job left the server's queue and will only run
// if a client resubmits it.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusRejected
}

// TenantConfig shapes per-tenant admission control on a Server. Each
// tenant's queue depth is the server's QueueDepth.
type TenantConfig struct {
	// Weights maps tenant name → DRR weight (jobs served per scheduling
	// round under contention). Tenants not listed get DefaultWeight.
	Weights map[string]int
	// DefaultWeight is the weight for unlisted tenants; 0 means 1.
	DefaultWeight int
	// Quota bounds each tenant's concurrently running jobs; 0 disables.
	Quota int
}

// weightFor resolves a tenant's DRR weight.
func (tc TenantConfig) weightFor(name string) int {
	if w, ok := tc.Weights[name]; ok && w > 0 {
		return w
	}
	if tc.DefaultWeight > 0 {
		return tc.DefaultWeight
	}
	return 1
}

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	Jobs []experiments.JobSpec `json:"jobs"`
}

// JobStatus is the wire form of one job's state.
type JobStatus struct {
	// ID is the job's content address (its result-cache key): identical
	// specs share an ID, which is what makes submission idempotent.
	ID     string `json:"id"`
	Status Status `json:"status"`
	// Tenant is the tenant the job was admitted under.
	Tenant string `json:"tenant,omitempty"`
	// Cached marks a job answered from the persistent result cache
	// without simulating.
	Cached bool `json:"cached,omitempty"`
	// Error holds the failure for StatusFailed (and the reason for
	// StatusRejected).
	Error string `json:"error,omitempty"`
	// Retryable hints whether a failure was environmental (shutdown,
	// cancellation, backpressure — another backend or a later resubmit
	// may succeed) rather than deterministic (a bad spec or a soundness
	// divergence, which every backend would reproduce).
	Retryable bool `json:"retryable,omitempty"`
}

// ListResponse is the body of GET /v1/jobs (and the submit response).
type ListResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// TenantHealth is one tenant's slice of the health snapshot.
type TenantHealth struct {
	Weight   int    `json:"weight"`
	Quota    int    `json:"quota,omitempty"`
	QueueCap int    `json:"queue_cap"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	Admitted uint64 `json:"admitted"`
	// Served counts jobs handed to workers (the DRR fairness metric).
	Served   uint64 `json:"served"`
	Rejected uint64 `json:"rejected"`
}

// Health is the body of GET /v1/healthz.
type Health struct {
	OK      bool `json:"ok"`
	Workers int  `json:"workers"`
	// QueueCap is the per-tenant admission queue capacity; Queued the
	// total depth across tenants.
	QueueCap int `json:"queue_cap"`
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	// Executed counts simulations actually run (cache hits excluded).
	Executed  uint64 `json:"executed"`
	CacheHits uint64 `json:"cache_hits"`
	Rejected  uint64 `json:"rejected"`
	// Tenants breaks admission down per tenant.
	Tenants map[string]TenantHealth `json:"tenants,omitempty"`
	// ResumedDone / ResumedRequeued count jobs recovered from the journal
	// at startup: already complete (result served from cache) vs
	// incomplete (re-queued for execution).
	ResumedDone     uint64 `json:"resumed_done,omitempty"`
	ResumedRequeued uint64 `json:"resumed_requeued,omitempty"`
	// JournalErrors counts failed journal appends (durability degraded
	// but service continuing).
	JournalErrors uint64 `json:"journal_errors,omitempty"`
	// Instance is the server's self-chosen label.
	Instance string `json:"instance,omitempty"`
	// PeerCache breaks down the result store's tiers when the server runs
	// a Tiered store (local/peer/negative hits and peer errors).
	PeerCache *resultcache.Stats `json:"peer_cache,omitempty"`
}

// BackendError labels a failure with the backend it came from and whether
// the job is worth retrying elsewhere.
type BackendError struct {
	Backend   string
	Retryable bool
	// RetryAfter, when positive, is the server's own backoff hint (from a
	// Retry-After header on a 503/429): the earliest moment a retry is
	// likely to be admitted. The Dispatcher honors it in place of its
	// exponential schedule.
	RetryAfter time.Duration
	Err        error
}

// Error renders the labeled failure.
func (e *BackendError) Error() string {
	kind := "permanent"
	if e.Retryable {
		kind = "retryable"
	}
	return fmt.Sprintf("dserve: backend %s: %s: %v", e.Backend, kind, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *BackendError) Unwrap() error { return e.Err }

// Retryable reports whether err is worth retrying on another backend (or
// later on the same one). Unlabeled errors are treated as permanent:
// deterministic simulation means an execution failure reproduces anywhere.
func Retryable(err error) bool {
	var be *BackendError
	return errors.As(err, &be) && be.Retryable
}

// RetryAfterHint extracts a server-provided backoff hint from err, if the
// failing backend sent one.
func RetryAfterHint(err error) (time.Duration, bool) {
	var be *BackendError
	if errors.As(err, &be) && be.RetryAfter > 0 {
		return be.RetryAfter, true
	}
	return 0, false
}
