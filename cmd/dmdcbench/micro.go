package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dmdc/internal/bpred"
	"dmdc/internal/cache"
	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/dserve"
	"dmdc/internal/energy"
	"dmdc/internal/experiments"
	"dmdc/internal/isa"
	"dmdc/internal/jobstore"
	"dmdc/internal/resultcache"
	"dmdc/internal/trace"
	"dmdc/internal/xrand"
)

// lsqPolicies are the policies whose hook streams the LSQ microbenchmark
// replays.
var lsqPolicies = []string{"baseline", "yla", "dmdc", "dmdc-local", "agetable", "value-based"}

// sink keeps the compiler from discarding microbenchmarked work.
var sink uint64

// runMicro runs the per-layer microbenchmarks. Their inputs are fixed —
// seed-0 streams of fixed benchmarks — so they read the same in every
// workload's traced run. An LSQ replay that does not reproduce its
// recording is a failed operation in t; a call into the program that
// panics or fails ends the microbenchmarks with an error.
func runMicro(ctx context.Context, o runOpts, t *tally) (_ map[string]metric, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	sz := o.sz
	dir, err := os.MkdirTemp(o.workDir, "micro-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	prof := func(name string) trace.Profile {
		p, err := trace.ByName(name)
		if err != nil {
			panic(err) // the names below are the fixed catalog's
		}
		return p
	}
	gcc, swim, mcf, gzip := prof("gcc"), prof("swim"), prof("mcf"), prof("gzip")
	c2 := config.Config2()
	m := map[string]metric{}
	per := func(f func() int) float64 { return perUnit(sz.MicroReps, sz.MicroRep, f) }

	// trace: committed-path batches, then wrong-path streams at gcc's
	// branch sites.
	var buf [64]isa.Inst
	m["trace.correct_ns_per_inst"] = metric{per(func() int {
		n := 0
		for _, p := range []trace.Profile{gcc, swim} {
			g := trace.NewGenerator(p)
			for k := 0; k < 50_000; {
				got := g.NextBatch(buf[:])
				k += got
				n += got
			}
		}
		return n
	}), "ns"}
	gccStream := stream(gcc, 200_000)
	type site struct {
		pc     uint64
		taken  bool
		target uint64
	}
	var branches []site
	for _, in := range gccStream {
		if in.Op.IsBranch() {
			branches = append(branches, site{in.PC, in.Taken, in.Target})
		}
	}
	m["trace.wrongpath_ns_per_inst"] = metric{per(func() int {
		g := trace.NewGenerator(gcc)
		g.EnableWrongPathReuse()
		n := 0
		for i, s := range branches[:min(len(branches), 2_000)] {
			ws := g.WrongPath(s.pc, !s.taken, uint64(i))
			if ws == nil {
				continue
			}
			for k := 0; k < 16; k++ {
				sink ^= ws.Next().PC
			}
			n += 16
		}
		return n
	}), "ns"}
	r := xrand.New(1)
	m["xrand.seed_ns"] = metric{per(func() int {
		for i := 0; i < 1_000; i++ {
			r.Seed(int64(i))
		}
		return 1_000
	}), "ns"}

	// core: construction across the matrix's machine × policy mix,
	// functional fast-forward, and checkpoint save and restore.
	mix := []string{"baseline", "yla", "dmdc", "dmdc-local"}
	m["core.new_us"] = metric{per(func() int {
		n := 0
		for _, mc := range config.All() {
			for _, p := range mix {
				if _, err := newSim(mc, gcc, p); err != nil {
					panic(err) // static machines and policies
				}
				n++
			}
		}
		return n
	}) / 1e3, "us"}
	ff := per(func() int {
		sim, err := newSim(c2, gcc, "dmdc")
		if err == nil {
			err = sim.FastForward(500_000, true)
		}
		if err != nil {
			panic(err)
		}
		return 500_000
	})
	m["core.fastforward_minsts_per_s"] = metric{1e3 / ff, "Minst/s"}
	ckSim, err := newSim(c2, gcc, "dmdc")
	if err != nil {
		return nil, err
	}
	if err := ckSim.FastForward(1_000_000, true); err != nil {
		return nil, err
	}
	blob, err := ckSim.SaveCheckpoint()
	if err != nil {
		return nil, err
	}
	m["checkpoint.bytes"] = metric{float64(len(blob)), "bytes"}
	m["core.checkpoint_save_ms"] = metric{per(func() int {
		b, err := ckSim.SaveCheckpoint()
		if err != nil {
			panic(err)
		}
		sink += uint64(len(b))
		return 1
	}) / 1e6, "ms"}
	restores := make([]float64, sz.MicroReps)
	for i := range restores {
		var total time.Duration
		n := 0
		for start := time.Now(); n == 0 || time.Since(start) < sz.MicroRep; n++ {
			sim, err := newSim(c2, gcc, "dmdc")
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			if err := sim.RestoreCheckpoint(blob); err != nil {
				return nil, err
			}
			total += time.Since(t0)
		}
		restores[i] = float64(total.Nanoseconds()) / float64(n) / 1e6
	}
	m["core.checkpoint_restore_ms"] = metric{quantile(sorted(restores), 0.5), "ms"}

	// lsq: replay each policy's recorded hook stream into a fresh policy.
	// The recorded runs' results feed the cache and service benchmarks.
	var (
		results    []*core.Result
		dmdcResult *core.Result
	)
	for _, p := range lsqPolicies {
		rec, res, err := recordLSQ(c2, gcc, p, sz.LSQInsts)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
		if p == "dmdc" {
			dmdcResult = res
		}
		f, _ := experiments.PolicyFactoryByName(p)
		m["lsq."+p+".ns_per_call"] = metric{per(func() int {
			pol, err := f(c2, energy.NewModel(c2.CoreSize()))
			if err != nil {
				panic(err)
			}
			n, err := rec.replay(pol)
			if err != nil {
				t.fail("%v", err)
				return max(n, 1)
			}
			t.ok()
			return n
		}), "ns"}
	}

	// cache and bpred over fixed address and branch streams.
	type access struct {
		addr  uint64
		write bool
	}
	var accesses []access
	for _, p := range []trace.Profile{mcf, gzip} {
		for _, in := range stream(p, 100_000) {
			if in.Op.IsMem() {
				accesses = append(accesses, access{in.Addr, in.Op.IsStore()})
			}
		}
	}
	m["cache.access_ns"] = metric{per(func() int {
		h, err := cache.NewHierarchy(c2.Memory)
		if err != nil {
			panic(err)
		}
		for _, a := range accesses {
			sink += uint64(h.L1D.Access(a.addr, a.write))
		}
		return len(accesses)
	}), "ns"}
	m["bpred.ns_per_branch"] = metric{per(func() int {
		p := bpred.New(c2.BPred)
		for _, b := range branches {
			cp := p.HistoryCheckpoint()
			pred := p.Predict(b.pc)
			p.Update(b.pc, pred, b.taken, b.target)
			if pred.Taken != b.taken {
				p.RestoreHistory(cp, b.taken)
			}
		}
		return len(branches)
	}), "ns"}

	// resultcache: disk writes and reads of real entries, and decoding.
	rc, err := resultcache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	keys := make([]string, sz.MicroCalls)
	for i := range keys {
		keys[i], _ = digest(fmt.Sprintf("micro-%d", i))
	}
	puts, err := latencies(keys, func(i int, k string) error { return rc.Put(k, results[i%len(results)]) })
	if err != nil {
		return nil, err
	}
	gets, err := latencies(keys, func(_ int, k string) error {
		if _, ok := rc.Get(k); !ok {
			return fmt.Errorf("resultcache: written entry %s missing", k)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["resultcache.put_us_p50"] = metric{quantile(puts, 0.5), "us"}
	m["resultcache.get_us_p50"] = metric{quantile(gets, 0.5), "us"}
	entry, err := resultcache.EncodeEntry(results[0])
	if err != nil {
		return nil, err
	}
	m["resultcache.entry_bytes"] = metric{float64(len(entry)), "bytes"}
	m["resultcache.decode_us"] = metric{per(func() int {
		if _, err := resultcache.DecodeEntry(entry); err != nil {
			panic(err)
		}
		return 1
	}) / 1e3, "us"}

	// jobstore: synced admissions, then replay of the journal they left.
	spec := experiments.JobSpec{Machine: c2, Policy: "dmdc", Benchmark: "gcc", Insts: sz.LSQInsts}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	journal := filepath.Join(dir, "journal")
	js, _, err := jobstore.Open(journal, jobstore.Options{Sync: true})
	if err != nil {
		return nil, err
	}
	appends, err := latencies(keys, func(_ int, k string) error {
		return js.Append(jobstore.Record{State: jobstore.StateAdmitted, ID: k, Tenant: "default", Spec: specJSON})
	})
	size := js.Size()
	if cerr := js.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	m["jobstore.append_sync_us_p50"] = metric{quantile(appends, 0.5), "us"}
	m["jobstore.append_sync_us_p90"] = metric{quantile(appends, 0.9), "us"}
	m["jobstore.bytes_per_job"] = metric{float64(size) / float64(len(keys)), "bytes"}
	replays := make([]float64, sz.MicroReps)
	for i := range replays {
		t0 := time.Now()
		s, _, err := jobstore.Open(journal, jobstore.Options{})
		if err != nil {
			return nil, err
		}
		replays[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		s.Close()
	}
	m["jobstore.replay_ms"] = metric{quantile(sorted(replays), 0.5), "ms"}

	// dserve: a cached job's submit-to-result round trip and a raw peer
	// fetch, against one server on a loopback listener; spec is the run
	// that produced dmdcResult.
	warm, peer, err := serviceLatencies(ctx, dir, spec, dmdcResult, sz.MicroCalls)
	if err != nil {
		return nil, err
	}
	m["dserve.warm_p50_us"] = metric{quantile(warm, 0.5), "us"}
	m["dserve.peer_fetch_p50_us"] = metric{quantile(peer, 0.5), "us"}
	return m, nil
}

// perUnit returns the median, over reps repetitions of at least minRep
// each, of the nanoseconds per unit of work; f does a fixed amount of work
// and reports how many units it did.
func perUnit(reps int, minRep time.Duration, f func() int) float64 {
	vals := make([]float64, max(reps, 1))
	for i := range vals {
		units := 0
		t0 := time.Now()
		for units == 0 || time.Since(t0) < minRep {
			units += f()
		}
		vals[i] = float64(time.Since(t0).Nanoseconds()) / float64(units)
	}
	return quantile(sorted(vals), 0.5)
}

// latencies times f once per key and returns the sorted durations in µs.
func latencies(keys []string, f func(i int, key string) error) ([]float64, error) {
	out := make([]float64, len(keys))
	for i, k := range keys {
		t0 := time.Now()
		if err := f(i, k); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return sorted(out), nil
}

// stream returns the first n committed-path instructions of a profile.
func stream(p trace.Profile, n int) []isa.Inst {
	g := trace.NewGenerator(p)
	out := make([]isa.Inst, 0, n+64)
	var buf [64]isa.Inst
	for len(out) < n {
		k := g.NextBatch(buf[:])
		out = append(out, buf[:k]...)
	}
	return out[:n]
}

// newSim builds a simulator the way the matrix builds a cell.
func newSim(m config.Machine, prof trace.Profile, policy string) (*core.Sim, error) {
	f, err := experiments.PolicyFactoryByName(policy)
	if err != nil {
		return nil, err
	}
	em := energy.NewModel(m.CoreSize())
	pol, err := f(m, em)
	if err != nil {
		return nil, err
	}
	return core.New(m, prof, pol, em)
}

// recordLSQ runs one cell with the policy wrapped in a recorder.
func recordLSQ(m config.Machine, prof trace.Profile, policy string, insts uint64) (*lsqRecording, *core.Result, error) {
	f, err := experiments.PolicyFactoryByName(policy)
	if err != nil {
		return nil, nil, err
	}
	em := energy.NewModel(m.CoreSize())
	pol, err := f(m, em)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecording(policy)
	sim, err := core.New(m, prof, &policyProbe{Policy: pol, rec: rec}, em)
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(insts)
	return rec, res, err
}

// serviceLatencies serves res for spec from one dmdcd instance and times
// calls resubmissions of the job and calls raw fetches of its entry, in µs.
func serviceLatencies(ctx context.Context, dir string, spec experiments.JobSpec, res *core.Result, calls int) (warm, peer []float64, err error) {
	disk, err := resultcache.Open(filepath.Join(dir, "served"))
	if err != nil {
		return nil, nil, err
	}
	key := spec.CacheKey()
	if err := disk.Put(key, res); err != nil {
		return nil, nil, err
	}
	srv, err := dserve.NewServer(dserve.ServerConfig{Workers: 1, Cache: disk, Instance: "micro"})
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	transport := &http.Transport{MaxConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	url := "http://" + ln.Addr().String()
	remote, cp := dserve.NewRemote(url, client), dserve.NewCachePeer(url, client)
	ids := make([]string, calls)
	if warm, err = latencies(ids, func(int, string) error { _, err := remote.Run(ctx, spec); return err }); err != nil {
		return nil, nil, err
	}
	if peer, err = latencies(ids, func(int, string) error { _, _, err := cp.FetchEntry(ctx, key); return err }); err != nil {
		return nil, nil, err
	}
	if srv.Executed() != 0 {
		return nil, nil, fmt.Errorf("dserve: a cached job simulated")
	}
	return warm, peer, nil
}
