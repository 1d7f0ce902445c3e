package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// Registry is a concurrency-safe directory of live samplers, keyed by job
// (the experiment runner uses "<run key>/<benchmark>"). The matrix worker
// pool registers and records from many goroutines while the -serve HTTP
// endpoint snapshots concurrently; the registry lock covers only the map —
// sample consistency is the Sampler's own lock.
type Registry struct {
	mu       sync.Mutex
	samplers map[string]*Sampler
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{samplers: make(map[string]*Sampler)}
}

// Register adds (or replaces) the sampler for a job key.
func (r *Registry) Register(key string, s *Sampler) {
	r.mu.Lock()
	r.samplers[key] = s
	r.mu.Unlock()
}

// Get returns the sampler for a job key, or nil.
func (r *Registry) Get(key string) *Sampler {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samplers[key]
}

// Keys returns the registered job keys, sorted.
func (r *Registry) Keys() []string {
	r.mu.Lock()
	keys := make([]string, 0, len(r.samplers))
	for k := range r.samplers {
		keys = append(keys, k)
	}
	r.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Snapshots returns a consistent snapshot per registered job, keyed as
// registered. Safe to call while simulations are recording.
func (r *Registry) Snapshots() map[string]Snapshot {
	r.mu.Lock()
	samplers := make(map[string]*Sampler, len(r.samplers))
	for k, s := range r.samplers {
		samplers[k] = s
	}
	r.mu.Unlock()
	out := make(map[string]Snapshot, len(samplers))
	for k, s := range samplers {
		out[k] = s.Snapshot()
	}
	return out
}

// jobSummary is one row of the handler's index response.
type jobSummary struct {
	Key       string  `json:"key"`
	Benchmark string  `json:"benchmark"`
	Config    string  `json:"config"`
	Policy    string  `json:"policy"`
	Samples   int     `json:"samples"`
	Cycle     uint64  `json:"cycle"`
	Committed uint64  `json:"committed"`
	IPC       float64 `json:"ipc"`
	StallFrac float64 `json:"stall_frac"`
}

// ServeHTTP implements the /telemetry live endpoint: without a query it
// returns a summary row per job; with ?job=KEY it returns that job's full
// snapshot (every retained sample).
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if key := req.URL.Query().Get("job"); key != "" {
		s := r.Get(key)
		if s == nil {
			http.Error(w, `{"error":"unknown job"}`, http.StatusNotFound)
			return
		}
		writeIndentedJSON(w, s.Snapshot())
		return
	}
	snaps := r.Snapshots()
	keys := make([]string, 0, len(snaps))
	for k := range snaps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]jobSummary, 0, len(keys))
	for _, k := range keys {
		sn := snaps[k]
		row := jobSummary{
			Key:       k,
			Benchmark: sn.Meta.Benchmark,
			Config:    sn.Meta.Config,
			Policy:    sn.Meta.Policy,
			Samples:   len(sn.Samples),
			IPC:       sn.IPC(),
		}
		if last, ok := sn.Last(); ok {
			row.Cycle = last.Cycle
			row.Committed = last.Committed
			if last.Cycle > 0 {
				row.StallFrac = float64(last.Stalls.Total()) / float64(last.Cycle)
			}
		}
		rows = append(rows, row)
	}
	writeIndentedJSON(w, map[string]any{"jobs": rows})
}

func writeIndentedJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"marshal failure"}`, http.StatusInternalServerError)
		return
	}
	w.Write(append(b, '\n'))
}
