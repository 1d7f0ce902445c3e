// Command dmdcd serves simulation jobs over HTTP/JSON: a worker pool
// behind the internal/dserve job API, fronting the same execution path,
// persistent result cache, and telemetry registry the in-process tools
// use. One or more dmdcd processes form the backend fleet for the
// experiments -backends flag (or any dserve.Dispatcher).
//
// With -store-dir, every admission and outcome is journaled to a
// crash-safe store: a killed or restarted dmdcd replays the journal and
// resumes or re-queues every incomplete job under the same
// content-addressed ID, so reconnecting long-pollers get the identical
// answer. A store directory has one owner at a time: dmdcd locks it at
// startup and exits with the lock error, before it listens, while another
// live process holds it. The lock dies with its holder, so the successor
// of a crashed or drained dmdcd resumes every job at once. With
// -tenant-weights/-quota, admission is multi-tenant: the X-DMDC-Tenant
// request header selects a per-tenant bounded queue, served by weighted
// fair (deficit round robin) scheduling.
//
// With -peers, instances form a result-sharing fleet: a local cache miss
// is fetched from a peer's GET /v1/cache/{key} (hash-verified, fail
// closed) before anything is simulated, so a matrix the fleet has
// already computed re-runs with zero simulations anywhere. -instance
// labels each one in /v1/version and /v1/healthz.
//
// Usage:
//
//	dmdcd -addr :8321
//	dmdcd -addr :8321 -workers 8 -cache-dir ~/.cache/dmdc
//	dmdcd -addr :8321 -store-dir /var/lib/dmdc/jobs -tenant-weights 'prod=3,batch=1' -quota 4
//	dmdcd -addr :8321 -telemetry-stride 4096
//	dmdcd -addr :8322 -cache-dir /var/cache/dmdc-b -peers http://hostA:8321 -instance b
//
// Submit a job with curl:
//
//	curl -s localhost:8321/v1/jobs -H 'X-DMDC-Tenant: prod' -d '{"jobs":[{"machine":{},"run_key":"dmdc-global-config2","benchmark":"gcc","insts":100000}]}'
//	curl -s localhost:8321/v1/jobs/ID?wait=10s
//	curl -s localhost:8321/v1/jobs/ID/result
//	curl -s localhost:8321/v1/healthz
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dmdc/internal/dserve"
	"dmdc/internal/jobstore"
	"dmdc/internal/resultcache"
	"dmdc/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", ":8321", "listen address")
		workers   = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "per-tenant admitted-job queue depth before backpressure (0 = 4x workers, at least 16)")
		cacheDir  = flag.String("cache-dir", os.Getenv("DMDC_CACHE"), "persistent result cache directory (default $DMDC_CACHE; empty disables)")
		storeDir  = flag.String("store-dir", "", "durable job-store directory: journal admissions and resume incomplete jobs on restart (empty disables)")
		weightsFl = flag.String("tenant-weights", "", "per-tenant fair-share weights, e.g. 'prod=3,batch=1,*=1' (* sets the default weight)")
		quota     = flag.Int("quota", 0, "per-tenant cap on concurrently running jobs (0 = unlimited)")
		telStride = flag.Uint64("telemetry-stride", 0, "per-job telemetry sample interval in cycles (0 disables /v1/telemetry)")
		peersFl   = flag.String("peers", "", "comma-separated base URLs of peer dmdcd instances; local cache misses are fetched from them before simulating (requires -cache-dir)")
		instance  = flag.String("instance", "", "instance label reported by /v1/version and /v1/healthz (default pid-<pid>)")
	)
	flag.Parse()

	tenants, err := parseWeights(*weightsFl)
	if err != nil {
		die(err)
	}
	tenants.Quota = *quota
	cfg := dserve.ServerConfig{
		Workers: *workers, QueueDepth: *queue, Tenants: tenants,
		Instance: *instance,
	}
	var disk *resultcache.Cache
	if *cacheDir != "" {
		c, err := resultcache.Open(*cacheDir)
		if err != nil {
			die(err)
		}
		disk = c
		cfg.Cache = c
		fmt.Fprintf(os.Stderr, "dmdcd: result cache at %s\n", c.Dir())
		if *peersFl != "" {
			var peers []resultcache.Peer
			for _, u := range strings.Split(*peersFl, ",") {
				if u = strings.TrimSpace(u); u != "" {
					peers = append(peers, dserve.NewCachePeer(u, nil))
				}
			}
			tiered, err := resultcache.NewTiered(resultcache.TieredConfig{Local: c, Peers: peers})
			if err != nil {
				die(err)
			}
			cfg.Cache = tiered
			fmt.Fprintf(os.Stderr, "dmdcd: fetching cache misses from %d peer(s)\n", len(peers))
		}
	} else if *peersFl != "" {
		die(fmt.Errorf("-peers needs -cache-dir: fetched entries must land in a local tier"))
	}
	var store *jobstore.Store
	if *storeDir != "" {
		s, rep, err := jobstore.Open(*storeDir, jobstore.Options{Sync: true})
		if err != nil {
			die(err)
		}
		store = s
		cfg.Store = s
		fmt.Fprintf(os.Stderr, "dmdcd: job store at %s (replayed %d records, %d jobs",
			s.Dir(), rep.Records, rep.Jobs)
		if rep.TornBytes > 0 {
			fmt.Fprintf(os.Stderr, ", repaired %d torn bytes", rep.TornBytes)
		}
		fmt.Fprintln(os.Stderr, ")")
	}
	if *telStride > 0 {
		cfg.Telemetry = &telemetry.Config{Stride: *telStride}
	}

	srv, err := dserve.NewServer(cfg)
	if err != nil {
		die(err)
	}
	if h := srv.Stats(); h.ResumedDone+h.ResumedRequeued > 0 {
		fmt.Fprintf(os.Stderr, "dmdcd: resumed %d jobs (%d already complete, %d re-queued)\n",
			h.ResumedDone+h.ResumedRequeued, h.ResumedDone, h.ResumedRequeued)
	}

	// Listen explicitly (rather than ListenAndServe) so ":0" works and the
	// resolved address is printed — the chaos harness and scripts parse it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		die(err)
	}
	hs := &http.Server{Handler: srv}

	// SIGINT/SIGTERM drain the listener, evict queued jobs retryably, and
	// cancel in-flight jobs; a dispatcher sees those failures as retryable
	// and reroutes them. With a store, everything incomplete resumes on
	// the next start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "dmdcd: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
		srv.Close()
		if store != nil {
			if err := store.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dmdcd:", err)
			}
		}
		if disk != nil {
			if err := disk.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dmdcd:", err)
			}
		}
	}()

	fmt.Fprintf(os.Stderr, "dmdcd: listening on %s\n", ln.Addr())
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		die(err)
	}
	<-done
}

// parseWeights parses "a=3,b=1,*=2" into a TenantConfig ("*" names the
// default weight for unlisted tenants).
func parseWeights(s string) (dserve.TenantConfig, error) {
	tc := dserve.TenantConfig{Weights: map[string]int{}}
	if s == "" {
		return tc, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return tc, fmt.Errorf("dmdcd: -tenant-weights entry %q is not name=weight", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 1 {
			return tc, fmt.Errorf("dmdcd: -tenant-weights %q: weight must be a positive integer", part)
		}
		if name = strings.TrimSpace(name); name == "*" {
			tc.DefaultWeight = w
		} else {
			tc.Weights[name] = w
		}
	}
	return tc, nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "dmdcd:", err)
	os.Exit(1)
}
