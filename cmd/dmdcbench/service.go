package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dmdc/internal/config"
	"dmdc/internal/dserve"
	"dmdc/internal/experiments"
	"dmdc/internal/jobstore"
	"dmdc/internal/resultcache"
	"dmdc/internal/trace"
)

// servicePolicies are the four LSQ designs the paper compares.
var servicePolicies = []string{"baseline", "yla", "dmdc", "dmdc-local"}

// clients is the number of closed-loop clients: each submits its next job
// only after the previous one returned, sized for a 2-core machine.
const clients = 2

// serviceWorkload drives a two-instance dmdcd fleet in process. Each pass
// starts a fresh fleet and runs three phases over the same job set: cold
// (every job simulates on A and is journaled and cached), warm (resubmits
// to A, answered without simulating) and peer (the jobs on B, each a
// verified fetch from A's cache).
type serviceWorkload struct {
	sz    sizes
	dir   string
	jobs  []experiments.JobSpec // seed-permuted
	names []string              // digest name of each job
}

func setupService(ctx context.Context, e env) (instance, error) {
	dir, err := os.MkdirTemp(e.dir, "service-")
	if err != nil {
		return nil, err
	}
	w := &serviceWorkload{sz: e.sz, dir: dir}
	for _, b := range permuted(trace.Names(), e.seed) {
		for _, p := range servicePolicies {
			w.jobs = append(w.jobs, experiments.JobSpec{Machine: config.Config2(), Policy: p, Benchmark: b, Insts: e.sz.JobInsts})
			w.names = append(w.names, "job/"+b+"/"+p)
		}
	}
	// A warm-up fleet runs one job per policy, at twice the length so none
	// is in the measured set, through the cold, warm and peer paths: server,
	// connection and policy start-up is paid here, not by a timed job.
	f, err := startFleet(filepath.Join(dir, "warmup"), nil)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(dir, "warmup"))
	defer f.close()
	errs := make([]error, len(servicePolicies))
	closedLoop(len(servicePolicies), func(i int) {
		spec := experiments.JobSpec{Machine: config.Config2(), Policy: servicePolicies[i], Benchmark: "gzip", Insts: 2 * e.sz.JobInsts}
		for _, b := range []experiments.Backend{f.dispatcher, f.remoteA, f.remoteB} {
			if _, err := b.Run(ctx, spec); err != nil {
				errs[i] = err
				return
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *serviceWorkload) close() { os.RemoveAll(w.dir) }

// node is one dmdcd instance behind a loopback listener.
type node struct {
	srv     *dserve.Server
	store   *jobstore.Store
	hs      *http.Server
	served  chan struct{}
	url     string
	journal string
}

func startNode(dir, instance string, cache resultcache.Store) (*node, error) {
	journal := filepath.Join(dir, "journal")
	store, _, err := jobstore.Open(journal, jobstore.Options{Sync: true})
	if err != nil {
		return nil, err
	}
	srv, err := dserve.NewServer(dserve.ServerConfig{Workers: 2, Cache: cache, Store: store, Instance: instance})
	if err != nil {
		store.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		store.Close()
		return nil, err
	}
	n := &node{srv: srv, store: store, hs: &http.Server{Handler: srv}, served: make(chan struct{}),
		url: "http://" + ln.Addr().String(), journal: journal}
	go func() {
		defer close(n.served)
		n.hs.Serve(ln)
	}()
	return n, nil
}

// close drains the server, stops the listener and waits for it, then
// closes the journal.
func (n *node) close() error {
	n.srv.Close()
	n.hs.Close()
	<-n.served
	return n.store.Close()
}

// fleet is instance A, instance B whose cache tiers over A, a dispatcher
// in front of A, and direct clients of both. Every client shares one
// transport that holds at most two connections per instance.
type fleet struct {
	a, b       *node
	tiered     *resultcache.Tiered
	transport  *http.Transport
	dispatcher *dserve.Dispatcher
	remoteA    *dserve.Remote
	remoteB    *dserve.Remote
	closeOnce  sync.Once
	closeErr   error
}

// startFleet starts a fleet under dir. With a tracer, the servers' caches,
// B's peer and the dispatcher's backend are wrapped to record spans.
func startFleet(dir string, tr *tracer) (*fleet, error) {
	f := &fleet{transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	client := &http.Client{Transport: f.transport}

	cacheA, err := resultcache.Open(filepath.Join(dir, "a", "cache"))
	if err != nil {
		return nil, err
	}
	var storeA resultcache.Store = cacheA
	if tr != nil {
		storeA = &storeProbe{inner: cacheA, tr: tr, parent: "server a"}
	}
	if f.a, err = startNode(filepath.Join(dir, "a"), "a", storeA); err != nil {
		return nil, err
	}

	cacheB, err := resultcache.Open(filepath.Join(dir, "b", "cache"))
	if err != nil {
		f.a.close()
		return nil, err
	}
	var peer resultcache.Peer = dserve.NewCachePeer(f.a.url, client)
	if tr != nil {
		peer = &peerProbe{inner: peer, tr: tr}
	}
	f.tiered, err = resultcache.NewTiered(resultcache.TieredConfig{Local: cacheB, Peers: []resultcache.Peer{peer}})
	if err != nil {
		f.a.close()
		return nil, err
	}
	var storeB resultcache.Store = f.tiered
	if tr != nil {
		storeB = &storeProbe{inner: f.tiered, tr: tr, parent: "server b"}
	}
	if f.b, err = startNode(filepath.Join(dir, "b"), "b", storeB); err != nil {
		f.a.close()
		return nil, err
	}

	f.remoteA = dserve.NewRemote(f.a.url, client)
	f.remoteB = dserve.NewRemote(f.b.url, client)
	var backend experiments.Backend = f.remoteA
	if tr != nil {
		backend = &backendProbe{inner: f.remoteA, tr: tr, layer: "dserve", name: "attempt"}
	}
	f.dispatcher, err = dserve.NewDispatcher(dserve.DispatcherConfig{
		Backends: []experiments.Backend{backend}, PerBackendInflight: clients,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() error {
	f.closeOnce.Do(func() {
		f.closeErr = errors.Join(f.b.close(), f.a.close())
		f.transport.CloseIdleConnections()
	})
	return f.closeErr
}

// closedLoop runs do over jobs from clients goroutines, each taking the
// next job only after its previous one returned.
func closedLoop(n int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// traceID is a job's span id: its content address, which is also its
// dmdcd job ID. Untraced phases skip computing it.
func traceID(tr *tracer, spec experiments.JobSpec) string {
	if tr == nil {
		return ""
	}
	return spec.CacheKey()
}

func (w *serviceWorkload) pass(ctx context.Context, t *tally) error {
	dir, err := os.MkdirTemp(w.dir, "fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f, err := startFleet(dir, t.tr)
	if err != nil {
		return err
	}
	defer f.close()
	n := len(w.jobs)

	// Cold: each job is timed from submission to result.
	start := time.Now()
	closedLoop(n, func(i int) {
		end := t.tr.begin("dserve", "job", traceID(t.tr, w.jobs[i]), "cold")
		t0 := time.Now()
		r, err := f.dispatcher.Run(ctx, w.jobs[i])
		d := time.Since(t0)
		end()
		if err != nil {
			t.fail("cold %s: %v", w.names[i], err)
			return
		}
		t.op(d)
		t.result(r)
		t.check(w.names[i], r)
	})
	t.simulated(uint64(n)*w.sz.JobInsts, time.Since(start))
	if got := f.a.srv.Executed(); got != uint64(n) {
		t.fail("cold phase: A executed %d jobs, want %d", got, n)
	}

	// Warm: resubmissions must be answered without simulating.
	for round := 0; round < w.sz.WarmRounds; round++ {
		closedLoop(n, func(i int) {
			t0 := time.Now()
			r, err := f.remoteA.Run(ctx, w.jobs[i])
			d := time.Since(t0)
			if err != nil {
				t.fail("warm %s: %v", w.names[i], err)
				return
			}
			t.ok()
			t.detail("warm_us", float64(d.Nanoseconds())/1e3)
			t.check(w.names[i], r)
		})
	}
	if got := f.a.srv.Executed(); got != uint64(n) {
		t.fail("warm phase: A executed %d jobs, want %d", got, n)
	}

	// Peer: B holds nothing, so each job is a verified fetch from A.
	closedLoop(n, func(i int) {
		t0 := time.Now()
		r, err := f.remoteB.Run(ctx, w.jobs[i])
		d := time.Since(t0)
		if err != nil {
			t.fail("peer %s: %v", w.names[i], err)
			return
		}
		t.ok()
		t.detail("peer_job_us", float64(d.Nanoseconds())/1e3)
		t.check(w.names[i], r)
	})
	if got := f.b.srv.Executed(); got != 0 {
		t.fail("peer phase: B executed %d jobs, want 0", got)
	}
	if got := f.tiered.Stats().PeerHits; got != uint64(n) {
		t.fail("peer phase: B fetched %d entries from A, want %d", got, n)
	}

	// Drain, then replay A's journal: every job must come back done.
	if err := f.close(); err != nil {
		return fmt.Errorf("close fleet: %w", err)
	}
	t0 := time.Now()
	store, _, err := jobstore.Open(f.a.journal, jobstore.Options{})
	if err != nil {
		t.fail("replay A's journal: %v", err)
		return nil
	}
	t.detail("journal_replay_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	done := 0
	for _, j := range store.Jobs() {
		if j.State == jobstore.StateDone {
			done++
		}
	}
	store.Close()
	if done != n {
		t.fail("A's journal replays %d done jobs, want %d", done, n)
	} else {
		t.ok()
	}
	return nil
}
