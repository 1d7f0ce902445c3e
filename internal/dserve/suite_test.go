package dserve

import (
	"net/http/httptest"
	"testing"

	"dmdc/internal/experiments"
	"dmdc/internal/resultcache"
)

// TestSuiteOverDispatcher runs the Suite's Backend path end to end, the
// path `cmd/experiments -backends` takes: a Suite fronted by its own
// result cache sends its cells through a Dispatcher to two dmdcd servers
// and must render an artifact byte-identical to an in-process Suite. A
// second Suite on a fresh handle to the same cache directory must render
// the same bytes with no simulation and no dispatch: the content address,
// not the process, owns the result.
func TestSuiteOverDispatcher(t *testing.T) {
	t.Parallel()
	opts := experiments.Options{Insts: 5_000, Benchmarks: []string{"gzip", "gcc", "swim"}}
	local, err := experiments.NewSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := local.Figure4().String()
	if err := local.Err(); err != nil {
		t.Fatal(err)
	}

	var backends []experiments.Backend
	var servers []*Server
	for i := 0; i < 2; i++ {
		srv := newTestServer(t, ServerConfig{Workers: 2})
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		backends = append(backends, NewRemote(ts.URL, nil))
		servers = append(servers, srv)
	}
	d, err := NewDispatcher(DispatcherConfig{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	render := func() (string, *experiments.Suite) {
		t.Helper()
		cache, err := resultcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Backend = d
		o.Cache = cache
		s, err := experiments.NewSuite(o)
		if err != nil {
			t.Fatal(err)
		}
		out := s.Figure4().String()
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		return out, s
	}

	got, cold := render()
	if got != want {
		t.Fatalf("Figure 4 over the dispatcher differs from in-process:\n%s\nwant:\n%s", got, want)
	}
	cells := cold.Simulated()
	dispatched := d.Stats().Dispatched
	if cells == 0 || dispatched != cells {
		t.Fatalf("cold suite ran %d cells with %d dispatches, want one dispatch per cell", cells, dispatched)
	}
	e0, e1 := servers[0].Executed(), servers[1].Executed()
	if e0+e1 != cells || e0 == 0 || e1 == 0 {
		t.Fatalf("servers executed %d+%d simulations for %d cells, want every cell once across both", e0, e1, cells)
	}

	got, warm := render()
	if got != want {
		t.Fatalf("warm Figure 4 differs from in-process:\n%s\nwant:\n%s", got, want)
	}
	if n := warm.Simulated(); n != 0 {
		t.Fatalf("warm suite simulated %d cells, want 0", n)
	}
	if n := d.Stats().Dispatched; n != dispatched {
		t.Fatalf("warm suite dispatched %d jobs, want 0", n-dispatched)
	}
}
