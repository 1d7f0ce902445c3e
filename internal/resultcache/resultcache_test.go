package resultcache

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/energy"
	"dmdc/internal/stats"
	"dmdc/internal/trace"
)

// testResult builds a representative Result without running a simulation.
func testResult() *core.Result {
	set := stats.NewSet()
	set.Put("cycles", 1234)
	set.Put("committed", 1000)
	set.Add("core_replays_total", 7)
	var br energy.Breakdown
	br.Sums[0] = 42.5
	br.Counts[0] = 17
	br.Cycles = 1234
	return &core.Result{
		Benchmark: "gzip",
		Class:     trace.INT,
		Config:    "config2",
		Policy:    "dmdc",
		Cycles:    1234,
		Insts:     1000,
		Energy:    br,
		Stats:     set,
	}
}

// Len counts the distinct keys in the index, after refreshing it.
func (c *Cache) Len() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.refreshLocked(); err != nil {
		return 0, err
	}
	return len(c.index), nil
}

func testKey() string {
	return Key(KeySpec{
		Machine:   config.Config2(),
		RunKey:    "dmdc-global-config2",
		Benchmark: "gzip",
		Insts:     1000,
	})
}

func TestRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	want := testResult()
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Benchmark != want.Benchmark || got.Cycles != want.Cycles ||
		got.Class != want.Class || got.Policy != want.Policy {
		t.Errorf("round trip changed result: got %+v", got)
	}
	if got.Energy.Sums[0] != want.Energy.Sums[0] || got.Energy.Counts[0] != want.Energy.Counts[0] {
		t.Errorf("energy breakdown not preserved: %+v", got.Energy)
	}
	if got.Stats.Get("cycles") != 1234 || got.Stats.Get("core_replays_total") != 7 {
		t.Errorf("stats not preserved: %v", got.Stats)
	}
	if names := got.Stats.Names(); len(names) != 3 || names[0] != "cycles" {
		t.Errorf("stats order not preserved: %v", names)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("counters: %d hits, %d misses", st.Hits, st.Misses)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v", n, err)
	}
}

func TestKeyDiscriminates(t *testing.T) {
	base := KeySpec{Machine: config.Config2(), RunKey: "k", Benchmark: "gzip", Insts: 1000}
	seen := map[string]string{Key(base): "base"}
	variants := map[string]KeySpec{}
	v := base
	v.Insts = 2000
	variants["insts"] = v
	v = base
	v.Benchmark = "mcf"
	variants["benchmark"] = v
	v = base
	v.RunKey = "k2"
	variants["run key"] = v
	v = base
	v.Machine = config.Config1()
	variants["machine"] = v
	v = base
	v.Faults = "storedelay=20@5"
	variants["faults"] = v
	for what, ks := range variants {
		k := Key(ks)
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collides with %s", what, prev)
		}
		seen[k] = what
	}
	if Key(base) != Key(base) {
		t.Error("Key not deterministic")
	}
}

func TestVersionMismatch(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	// Hand-write an entry claiming a stale format version; it must read
	// as a miss and be evicted.
	b, err := json.Marshal(entry{Version: FormatVersion + 1, Result: testResult()})
	if err != nil {
		t.Fatal(err)
	}
	writeSegment(t, c.Dir(), segFrame(key, b))
	if _, ok := c.Get(key); ok {
		t.Error("stale-version entry served")
	}
	if n, err := c.Len(); err != nil || n != 0 {
		t.Errorf("stale entry not evicted: Len = %d, %v", n, err)
	}
}

// TestStaleFormatEntryIsMiss: entries written under the previous format
// version (before the soundness layer changed simulator semantics) must
// read as misses and be evicted, even when addressed directly.
func TestStaleFormatEntryIsMiss(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	b, err := json.Marshal(entry{Version: FormatVersion - 1, Result: testResult()})
	if err != nil {
		t.Fatal(err)
	}
	writeSegment(t, c.Dir(), segFrame(key, b))
	if _, ok := c.Get(key); ok {
		t.Error("previous-format entry served")
	}
	if n, err := c.Len(); err != nil || n != 0 {
		t.Errorf("previous-format entry not evicted: Len = %d, %v", n, err)
	}
	if m := c.Stats().Misses; m != 1 {
		t.Errorf("stale read not counted as a miss (%d misses)", m)
	}
}

func TestCorruptedEntry(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	writeSegment(t, c.Dir(), segFrame(key, []byte("{truncated garbage")))
	if _, ok := c.Get(key); ok {
		t.Error("corrupted entry served")
	}
	// The recompute path must be able to replace it.
	if err := c.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); !ok {
		t.Error("replacement entry not served")
	}
}

// TestClear: Clear deletes segments, entry files of the one-file-per-entry
// layout and stray temp files, and nothing else.
func TestClear(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testKey(), testResult()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{testKey() + ".json", "put-123.tmp", "README"} {
		if err := os.WriteFile(filepath.Join(c.Dir(), name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Len(); err != nil || n != 0 {
		t.Errorf("after Clear: Len = %d, %v", n, err)
	}
	if _, ok := c.Get(testKey()); ok {
		t.Error("entry survived Clear")
	}
	if names := dirNames(t, c.Dir()); len(names) != 1 || names[0] != "README" {
		t.Errorf("after Clear the directory holds %v, want only README", names)
	}
	// The Cache stays usable: its next Put starts a new segment.
	if err := c.Put(testKey(), testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := reopen(t, c).Get(testKey()); !ok {
		t.Error("Put after Clear not visible to a fresh Open")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty directory accepted")
	}
}

// TestDecodeEntryRejectsIncomplete: a well-formed entry whose result is
// missing, or carries no stats, must fail with ErrIncompleteEntry — never
// decode into a result whose first Stats.Get dereferences nil. Every
// cache entry crosses this function: disk reads, peer fetches and
// /v1/cache PUT bodies.
func TestDecodeEntryRejectsIncomplete(t *testing.T) {
	for _, body := range []string{
		`{"version":2,"result":{}}`,
		`{"version":2,"result":{"Benchmark":"gzip","Stats":null}}`,
		`{"version":2,"result":null}`,
		`{"version":2}`,
	} {
		r, err := DecodeEntry([]byte(body))
		if !errors.Is(err, ErrIncompleteEntry) {
			t.Errorf("DecodeEntry(%s) = (%v, %v), want ErrIncompleteEntry", body, r, err)
		}
	}
}
