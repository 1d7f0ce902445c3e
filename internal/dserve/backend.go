package dserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dmdc/internal/core"
	"dmdc/internal/experiments"
)

// Remote executes jobs on a dmdcd server over its HTTP/JSON API: submit a
// one-job batch, long-poll the job's status, fetch the result. Network
// failures, 5xx responses, and backpressure rejections come back as
// retryable BackendErrors so the Dispatcher moves the job elsewhere.
type Remote struct {
	base   string
	client *http.Client
	poll   time.Duration
	tenant string
}

// NewRemote builds a client for the dmdcd server at baseURL (e.g.
// "http://host:8321"). client nil means http.DefaultClient.
func NewRemote(baseURL string, client *http.Client) *Remote {
	if client == nil {
		client = http.DefaultClient
	}
	return &Remote{
		base:   strings.TrimRight(baseURL, "/"),
		client: client,
		poll:   10 * time.Second,
	}
}

// WithTenant makes every request identify as the named tenant (the
// X-DMDC-Tenant header), landing jobs on that tenant's fair-queued
// admission. Returns r for chaining; empty means the server default.
func (r *Remote) WithTenant(tenant string) *Remote {
	r.tenant = tenant
	return r
}

// Name identifies the backend by its base URL.
func (r *Remote) Name() string { return r.base }

// retryableStatus reports whether an HTTP status marks an environmental
// failure: server errors and backpressure, not client mistakes.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// retryAfterOf extracts an integer-seconds Retry-After hint from a
// backpressure response (503/429); 0 when absent or unparseable.
func retryAfterOf(resp *http.Response) time.Duration {
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusTooManyRequests {
		return 0
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// errBody extracts the structured ErrorEnvelope from a non-2xx response,
// falling back to the raw body for non-envelope responses (proxies,
// foreign servers).
func errBody(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e ErrorEnvelope
	if json.Unmarshal(body, &e) == nil && e.Code != "" {
		return fmt.Errorf("%s: %s: %s", resp.Status, e.Code, e.Message)
	}
	return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
}

// envelopeOf parses the envelope out of a non-2xx response body without
// consuming errBody's view (the caller passes the already-read bytes).
// It reports whether an envelope was present.
func envelopeOf(body []byte) (ErrorEnvelope, bool) {
	var e ErrorEnvelope
	if json.Unmarshal(body, &e) == nil && e.Code != "" {
		return e, true
	}
	return ErrorEnvelope{}, false
}

// do issues one request and decodes a 2xx JSON body into out. Non-2xx
// responses and transport errors become BackendErrors.
func (r *Remote) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return &BackendError{Backend: r.Name(), Err: fmt.Errorf("encode request: %w", err)}
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, body)
	if err != nil {
		return &BackendError{Backend: r.Name(), Err: err}
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.tenant != "" {
		req.Header.Set(TenantHeader, r.tenant)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		// Transport failure: connection refused, reset, timeout — the
		// server may be gone, but another backend can run the job.
		return &BackendError{Backend: r.Name(), Retryable: true, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		be := &BackendError{
			Backend:    r.Name(),
			Retryable:  retryableStatus(resp.StatusCode),
			RetryAfter: retryAfterOf(resp),
			Err:        fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body)),
		}
		if env, ok := envelopeOf(body); ok {
			// The server's own verdict beats the status-code heuristic: a
			// failed simulation's 500 is deterministic, while a 409 for a
			// job that has not finished yet is worth retrying.
			be.Retryable = env.Retryable
			be.Err = fmt.Errorf("%s: %s: %s", resp.Status, env.Code, env.Message)
		}
		return be
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return &BackendError{Backend: r.Name(), Retryable: true, Err: fmt.Errorf("decode response: %w", err)}
		}
	}
	return nil
}

// Run submits the job and waits for its terminal state.
func (r *Remote) Run(ctx context.Context, spec experiments.JobSpec) (*core.Result, error) {
	var sub ListResponse
	if err := r.do(ctx, http.MethodPost, "/v1/jobs", SubmitRequest{Jobs: []experiments.JobSpec{spec}}, &sub); err != nil {
		return nil, err
	}
	if len(sub.Jobs) != 1 {
		return nil, &BackendError{Backend: r.Name(), Retryable: true,
			Err: fmt.Errorf("submit returned %d statuses for 1 job", len(sub.Jobs))}
	}
	js := sub.Jobs[0]
	for !js.Status.Terminal() {
		if err := ctx.Err(); err != nil {
			return nil, &BackendError{Backend: r.Name(), Retryable: true, Err: err}
		}
		if err := r.do(ctx, http.MethodGet,
			fmt.Sprintf("/v1/jobs/%s?wait=%s", js.ID, r.poll), nil, &js); err != nil {
			return nil, err
		}
	}
	if js.Status == StatusRejected {
		// Backpressure at submit, or the job was evicted by a server
		// shutdown while queued. Retryable either way — backoff or another
		// backend will absorb the job.
		return nil, &BackendError{Backend: r.Name(), Retryable: true,
			Err: fmt.Errorf("rejected: %s", js.Error)}
	}
	if js.Status == StatusFailed {
		return nil, &BackendError{Backend: r.Name(), Retryable: js.Retryable,
			Err: fmt.Errorf("job failed: %s", js.Error)}
	}
	var res core.Result
	if err := r.do(ctx, http.MethodGet, "/v1/jobs/"+js.ID+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
