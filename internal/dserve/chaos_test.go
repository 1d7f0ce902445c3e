package dserve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dmdc/internal/config"
	"dmdc/internal/experiments"
	"dmdc/internal/jobstore"
	"dmdc/internal/resultcache"
)

// mediumSpec runs long enough (roughly a second) that a test can
// reliably interrupt it, but completes in reasonable time when resumed.
func mediumSpec(bench string) experiments.JobSpec {
	return experiments.JobSpec{
		Machine:   config.Config2(),
		Policy:    "baseline",
		Benchmark: bench,
		Insts:     2_000_000,
	}
}

// TestServerRestartResume is the in-process durability test: a server
// with a job store is closed mid-matrix; a second server over the same
// store and cache must re-publish completed jobs (from the cache, no
// re-execution) and re-queue and finish every incomplete one — same IDs,
// byte-identical results.
func TestServerRestartResume(t *testing.T) {
	t.Parallel()
	storeDir, cacheDir := t.TempDir(), t.TempDir()
	openAll := func() (*jobstore.Store, *resultcache.Cache) {
		st, _, err := jobstore.Open(storeDir, jobstore.Options{})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		c, err := resultcache.Open(cacheDir)
		if err != nil {
			t.Fatalf("open cache: %v", err)
		}
		return st, c
	}

	store, cache := openAll()
	srv := newTestServer(t, ServerConfig{Workers: 1, Cache: cache, Store: store})
	ts := httptest.NewServer(srv)

	// One job completes before the restart (the ResumedDone path), then a
	// medium job holds the single worker while three more queue behind it.
	doneFirst, _ := submit(t, ts.URL, quickSpec("gzip"))
	if js := getStatus(t, ts.URL, doneFirst.Jobs[0].ID, "30s"); js.Status != StatusDone {
		t.Fatalf("warm-up job ended %s (%s)", js.Status, js.Error)
	}
	pending, _ := submit(t, ts.URL, mediumSpec("art"), quickSpec("gcc"), quickSpec("swim"), quickSpec("mcf"))
	specs := map[string]experiments.JobSpec{
		doneFirst.Jobs[0].ID: quickSpec("gzip"),
		pending.Jobs[0].ID:   mediumSpec("art"),
		pending.Jobs[1].ID:   quickSpec("gcc"),
		pending.Jobs[2].ID:   quickSpec("swim"),
		pending.Jobs[3].ID:   quickSpec("mcf"),
	}

	// Close mid-flight: the running job fails retryably, the queued ones
	// are evicted — but the journal still holds all five admissions.
	srv.Close()
	ts.Close()
	store.Close()

	store2, cache2 := openAll()
	defer store2.Close()
	srv2 := newTestServer(t, ServerConfig{Workers: 2, Cache: cache2, Store: store2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	h := srv2.Stats()
	if h.ResumedDone+h.ResumedRequeued != uint64(len(specs)) {
		t.Fatalf("resumed %d done + %d requeued, want %d total",
			h.ResumedDone, h.ResumedRequeued, len(specs))
	}
	if h.ResumedDone == 0 {
		t.Fatal("completed warm-up job was not resumed from the cache")
	}
	if h.ResumedRequeued == 0 {
		t.Fatal("no job was re-queued; the restart had nothing to prove")
	}

	// Reconnecting long-pollers get every job to done with the same bytes
	// a local run produces.
	for id, spec := range specs {
		js := getStatus(t, ts2.URL, id, "60s")
		for !js.Status.Terminal() {
			js = getStatus(t, ts2.URL, id, "60s")
		}
		if js.Status != StatusDone {
			t.Fatalf("resumed job %s ended %s (%s)", id, js.Status, js.Error)
		}
		resp, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var got json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatalf("decode result: %v", err)
		}
		resp.Body.Close()
		local, err := experiments.ExecuteJob(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(local)
		if mustCompact(t, got) != mustCompact(t, want) {
			t.Errorf("resumed job %s result diverged from local", id)
		}
	}

	// Zero duplicated: the second server executed exactly the re-queued
	// jobs, never the already-completed one.
	if got := srv2.Executed(); got != h.ResumedRequeued {
		t.Fatalf("second server executed %d jobs, want exactly the %d re-queued", got, h.ResumedRequeued)
	}

	// Idempotent resubmit after restart: same IDs, no new executions.
	resub, _ := submit(t, ts2.URL, quickSpec("gzip"), quickSpec("gcc"))
	for _, js := range resub.Jobs {
		if _, ok := specs[js.ID]; !ok {
			t.Fatalf("resubmit minted a new ID %s", js.ID)
		}
		if js.Status != StatusDone {
			t.Fatalf("resubmit of finished job came back %s", js.Status)
		}
	}
	if got := srv2.Executed(); got != h.ResumedRequeued {
		t.Fatalf("resubmit re-executed: %d executions, want %d", got, h.ResumedRequeued)
	}
}

// mustCompact canonicalizes JSON for byte comparison.
func mustCompact(t *testing.T, raw []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// dmdcdProc is one real dmdcd process under test.
type dmdcdProc struct {
	cmd  *exec.Cmd
	addr string
}

// startDmdcd launches the built binary and waits for its listen line.
func startDmdcd(t *testing.T, bin, addr, storeDir, cacheDir string) *dmdcdProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-workers", "2",
		"-store-dir", storeDir,
		"-cache-dir", cacheDir,
		"-tenant-weights", "chaos=3,*=1",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start dmdcd: %v", err)
	}
	p := &dmdcdProc{cmd: cmd}
	listening := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("dmdcd: %s", line)
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case listening <- a:
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-listening:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("dmdcd never reported its listen address")
	}
	return p
}

// waitHealthz polls the server until /v1/healthz answers.
func waitHealthz(t *testing.T, base string) Health {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			var h Health
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil {
				return h
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server at %s never became healthy: %v", base, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosKillRestartProcess is the process-level durability test (the
// `make chaos` centerpiece): a real dmdcd is SIGKILLed mid-matrix — no
// graceful Close, no flushed state beyond the fsynced journal — then
// restarted on the same address and store. Every job must complete
// exactly once with bytes identical to a local run: zero lost, zero
// duplicated.
func TestChaosKillRestartProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server process; skipped in -short")
	}
	t.Parallel()
	bin := filepath.Join(t.TempDir(), "dmdcd")
	build := exec.Command("go", "build", "-o", bin, "dmdc/cmd/dmdcd")
	build.Dir = "../.." // repo root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dmdcd: %v\n%s", err, out)
	}

	storeDir, cacheDir := t.TempDir(), t.TempDir()
	p := startDmdcd(t, bin, "127.0.0.1:0", storeDir, cacheDir)
	base := "http://" + p.addr
	waitHealthz(t, base)

	// An 8-cell matrix, all submitted (and journaled) before the kill.
	var specs []experiments.JobSpec
	for _, pol := range []string{"baseline", "dmdc"} {
		for _, b := range []string{"gzip", "gcc", "swim", "mcf"} {
			specs = append(specs, experiments.JobSpec{
				Machine: config.Config2(), Policy: pol, Benchmark: b, Insts: 400_000,
			})
		}
	}
	body, _ := json.Marshal(SubmitRequest{Jobs: specs})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, "chaos")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit matrix: %v", err)
	}
	var lr ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	resp.Body.Close()
	if len(lr.Jobs) != len(specs) {
		t.Fatalf("submitted %d cells, got %d statuses", len(specs), len(lr.Jobs))
	}
	for _, js := range lr.Jobs {
		if js.Status == StatusRejected || js.Status == StatusFailed {
			t.Fatalf("cell %s not admitted: %s (%s)", js.ID, js.Status, js.Error)
		}
	}

	// SIGKILL once at least two cells have executed: some done, some
	// running, some queued — the worst-case mix for resume.
	deadline := time.Now().Add(time.Minute)
	for waitHealthz(t, base).Executed < 2 {
		if time.Now().After(deadline) {
			t.Fatal("server never executed two cells")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill: %v", err)
	}
	p.cmd.Wait()

	// Restart on the same address and store; the journal must account for
	// every admitted cell.
	p2 := startDmdcd(t, bin, p.addr, storeDir, cacheDir)
	defer func() {
		p2.cmd.Process.Signal(syscall.SIGTERM)
		p2.cmd.Wait()
	}()
	base2 := "http://" + p2.addr
	h := waitHealthz(t, base2)
	if h.ResumedDone+h.ResumedRequeued != uint64(len(specs)) {
		t.Fatalf("restart resumed %d done + %d requeued, want all %d admitted cells",
			h.ResumedDone, h.ResumedRequeued, len(specs))
	}
	if h.ResumedRequeued == 0 {
		t.Fatal("kill landed after the whole matrix completed; nothing was resumed")
	}

	// Zero lost: a reconnecting long-poller drives every cell to done and
	// the bytes match a local in-process run exactly.
	for i, js := range lr.Jobs {
		var got JobStatus
		pollDeadline := time.Now().Add(2 * time.Minute)
		for {
			r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s?wait=10s", base2, js.ID))
			if err != nil {
				t.Fatalf("poll %s: %v", js.ID, err)
			}
			err = json.NewDecoder(r.Body).Decode(&got)
			r.Body.Close()
			if err != nil {
				t.Fatalf("decode poll: %v", err)
			}
			if got.Status.Terminal() {
				break
			}
			if time.Now().After(pollDeadline) {
				t.Fatalf("cell %s stuck in %s after restart", js.ID, got.Status)
			}
		}
		if got.Status != StatusDone {
			t.Fatalf("cell %s ended %s (%s)", js.ID, got.Status, got.Error)
		}
		r, err := http.Get(base2 + "/v1/jobs/" + js.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		local, err := experiments.ExecuteJob(context.Background(), specs[i])
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(local)
		if mustCompact(t, raw) != mustCompact(t, want) {
			t.Errorf("cell %s/%s: post-restart result diverged from local",
				specs[i].Policy, specs[i].Benchmark)
		}
	}

	// Zero duplicated: the restarted server executed exactly the
	// re-queued cells; completed ones were answered from the cache.
	h = waitHealthz(t, base2)
	if h.Executed != h.ResumedRequeued {
		t.Fatalf("restarted server executed %d cells, want exactly the %d re-queued (duplicates or losses)",
			h.Executed, h.ResumedRequeued)
	}
	if th, ok := h.Tenants["chaos"]; !ok || th.Weight != 3 {
		t.Fatalf("tenant weights not applied across restart: %+v", h.Tenants)
	}
	_ = os.Remove(bin)
}

// TestServerRestartKeepsFailure pins the one resume branch that reads an
// outcome from the journal: a deterministic failure survives a restart
// as the same failure, without re-running the job.
func TestServerRestartKeepsFailure(t *testing.T) {
	t.Parallel()
	storeDir, cacheDir := t.TempDir(), t.TempDir()
	open := func() (*jobstore.Store, *resultcache.Cache) {
		st, _, err := jobstore.Open(storeDir, jobstore.Options{Sync: true})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		c, err := resultcache.Open(cacheDir)
		if err != nil {
			t.Fatalf("open cache: %v", err)
		}
		return st, c
	}
	// A valid spec whose one-cycle watchdog fails it the same way on
	// every run.
	spec := experiments.JobSpec{
		Machine: config.Config2(), Policy: "dmdc", Benchmark: "gzip", Insts: 5000, WatchdogCycles: 1,
	}

	store, cache := open()
	srv := newTestServer(t, ServerConfig{Workers: 1, Cache: cache, Store: store})
	ts := httptest.NewServer(srv)
	sub, _ := submit(t, ts.URL, spec)
	id := sub.Jobs[0].ID
	first := getStatus(t, ts.URL, id, "30s")
	if first.Status != StatusFailed || first.Retryable || first.Error == "" {
		t.Fatalf("watchdog job ended %+v, want a deterministic failure", first)
	}
	ts.Close()
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	store2, cache2 := open()
	defer store2.Close()
	srv2 := newTestServer(t, ServerConfig{Workers: 1, Cache: cache2, Store: store2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	if h := srv2.Stats(); h.ResumedDone != 1 || h.ResumedRequeued != 0 {
		t.Fatalf("resumed %d done + %d requeued, want the failure kept as done",
			h.ResumedDone, h.ResumedRequeued)
	}
	again := getStatus(t, ts2.URL, id, "")
	if again.Status != StatusFailed || again.Error != first.Error {
		t.Fatalf("after restart job is %s (%q), want failed (%q)", again.Status, again.Error, first.Error)
	}
	if got := srv2.Executed(); got != 0 {
		t.Fatalf("restarted server re-ran the failed job (%d executions)", got)
	}
}

// TestChaosSecondDmdcdRefused pins the store lock at the process level:
// a second dmdcd on a -store-dir that a live dmdcd holds exits non-zero
// with the lock error before it listens, and once the holder is
// SIGKILLed the lock dies with it and a successor starts at once.
func TestChaosSecondDmdcdRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real server processes; skipped in -short")
	}
	t.Parallel()
	bin := filepath.Join(t.TempDir(), "dmdcd")
	build := exec.Command("go", "build", "-o", bin, "dmdc/cmd/dmdcd")
	build.Dir = "../.." // repo root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dmdcd: %v\n%s", err, out)
	}
	storeDir := t.TempDir()
	holder := startDmdcd(t, bin, "127.0.0.1:0", storeDir, t.TempDir())
	defer holder.cmd.Process.Kill() // a no-op once the test has killed it

	second := exec.Command(bin, "-addr", "127.0.0.1:0", "-store-dir", storeDir, "-cache-dir", t.TempDir())
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = second.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		second.Process.Kill()
		<-done
		t.Fatalf("second dmdcd on a held store did not exit:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() == 0 {
		t.Fatalf("second dmdcd exited with %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), jobstore.ErrLocked.Error()) {
		t.Errorf("second dmdcd's output does not name the lock:\n%s", out)
	}
	if strings.Contains(string(out), "listening on") {
		t.Errorf("second dmdcd listened before failing on the lock:\n%s", out)
	}

	if err := holder.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill: %v", err)
	}
	holder.cmd.Wait()
	successor := startDmdcd(t, bin, "127.0.0.1:0", storeDir, t.TempDir())
	successor.cmd.Process.Signal(syscall.SIGTERM)
	if err := successor.cmd.Wait(); err != nil {
		t.Fatalf("successor on the released store exited with %v", err)
	}
}
