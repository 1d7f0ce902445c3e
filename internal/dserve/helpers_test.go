package dserve

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"

	"dmdc/internal/resultcache"
)

// newTestServer builds a server, failing the test on a resume error.
func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s
}

// getJSON GETs url and decodes its 200 JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// openTestCache opens a fresh result cache under the test's temp dir.
func openTestCache(t *testing.T) *resultcache.Cache {
	t.Helper()
	c, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open cache: %v", err)
	}
	return c
}

// faultWindow injects a burst of 502s into a wrapped handler: requests
// [after, after+count) fail without reaching the handler.
type faultWindow struct {
	after int64
	count int64
	seen  atomic.Int64
	fired atomic.Int64
}

func newFaultWindow(after, count int64) *faultWindow {
	return &faultWindow{after: after, count: count}
}

func (f *faultWindow) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := f.seen.Add(1)
		if n > f.after && n <= f.after+f.count {
			f.fired.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadGateway)
			w.Write([]byte(`{"error":"injected fault"}`))
			return
		}
		h.ServeHTTP(w, r)
	})
}
