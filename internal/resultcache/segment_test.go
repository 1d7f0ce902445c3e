package resultcache

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/jobstore"
)

// segFrame frames one entry body under key, as Put does.
func segFrame(key string, body []byte) []byte {
	return jobstore.AppendFrame(nil, append([]byte(key+"\n"), body...))
}

// writeSegment writes a segment file holding frames into dir, as another
// writer sharing the directory would, and returns its path.
func writeSegment(t *testing.T, dir string, frames ...[]byte) string {
	t.Helper()
	b := []byte(segMagic)
	for _, f := range frames {
		b = append(b, f...)
	}
	f, err := os.CreateTemp(dir, segPrefix+"*"+segExt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

// dirNames lists dir's file names, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	sort.Strings(names)
	return names
}

// onlySegment returns the path of the single segment in dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	names := dirNames(t, dir)
	if len(names) != 1 || !strings.HasPrefix(names[0], segPrefix) {
		t.Fatalf("want one segment in %s, found %v", dir, names)
	}
	return filepath.Join(dir, names[0])
}

// openCache opens a Cache over dir that is closed when the test ends.
func openCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// reopen opens a second, fresh Cache over c's directory.
func reopen(t *testing.T, c *Cache) *Cache {
	t.Helper()
	return openCache(t, c.Dir())
}

// keyN returns a distinct content address per n.
func keyN(n int) string {
	return Key(KeySpec{Machine: config.Config2(), RunKey: "seg", Benchmark: "gzip", Insts: uint64(n + 1)})
}

// TestPutsShareOneSegment: a Cache appends every entry to the one segment
// it creates on its first Put, and a Cache that only reads creates nothing.
func TestPutsShareOneSegment(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	if _, ok := c.Get(keyN(0)); ok {
		t.Fatal("hit on an empty cache")
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("a Cache that only read created %v", names)
	}
	for i := 0; i < 100; i++ {
		if err := c.Put(keyN(i), testResult()); err != nil {
			t.Fatal(err)
		}
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("100 Puts left %d files, want 1 segment", len(names))
	}
	c2 := reopen(t, c)
	if n, err := c2.Len(); err != nil || n != 100 {
		t.Fatalf("fresh Open indexes %d entries (%v), want 100", n, err)
	}
	for i := 0; i < 100; i++ {
		if _, ok := c2.Get(keyN(i)); !ok {
			t.Fatalf("entry %d missing after reopen", i)
		}
	}
}

// TestSharedDirVisibility: two Caches on one directory see each other's
// Puts without reopening, and GetRaw serves the EncodeEntry bytes.
func TestSharedDirVisibility(t *testing.T) {
	a := openCache(t, t.TempDir())
	b := reopen(t, a)
	r := testResult()
	want, err := EncodeEntry(r)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	if _, ok := b.Get(key); ok {
		t.Fatal("hit before Put")
	}
	if err := a.Put(key, r); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get(key); !ok {
		t.Fatal("Put through A is not a hit through B")
	}
	if raw, ok := b.GetRaw(key); !ok || !bytes.Equal(raw, want) {
		t.Fatalf("B's GetRaw = %q, %v; want the EncodeEntry bytes", raw, ok)
	}
	// And the other way round, with both segments in place.
	if err := b.Put(keyN(1), r); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Get(keyN(1)); !ok {
		t.Fatal("Put through B is not a hit through A")
	}
}

// TestTornTail: a segment cut short in the middle of its last frame, as a
// crash mid-write leaves it, keeps its earlier entries; the torn one
// misses, and later Puts are visible to a fresh Open.
func TestTornTail(t *testing.T) {
	c := openCache(t, t.TempDir())
	seg := ""
	var sizes []int64
	for i := 0; i < 3; i++ {
		if err := c.Put(keyN(i), testResult()); err != nil {
			t.Fatal(err)
		}
		seg = onlySegment(t, c.Dir())
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	if err := os.Truncate(seg, (sizes[1]+sizes[2])/2); err != nil {
		t.Fatal(err)
	}

	fresh := reopen(t, c)
	for _, cc := range []*Cache{fresh, c} {
		for i := 0; i < 2; i++ {
			if _, ok := cc.Get(keyN(i)); !ok {
				t.Fatalf("entry %d before the torn frame missing", i)
			}
		}
		if _, ok := cc.Get(keyN(2)); ok {
			t.Fatal("torn entry served")
		}
	}
	// The writer found its own segment torn: it must not append behind
	// the torn frame, where no scan would reach.
	if err := c.Put(keyN(3), testResult()); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Put(keyN(4), testResult()); err != nil {
		t.Fatal(err)
	}
	last := reopen(t, c)
	for i := 3; i < 5; i++ {
		if _, ok := last.Get(keyN(i)); !ok {
			t.Fatalf("Put %d after the torn tail not visible to a fresh Open", i)
		}
	}
}

// TestFlippedByteIsMiss: one flipped byte in an entry's body fails its
// checksum, so the entry reads as a miss — even though the body may still
// decode — and the recomputed Put replaces it for every reader.
func TestFlippedByteIsMiss(t *testing.T) {
	c := openCache(t, t.TempDir())
	key := testKey()
	if err := c.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, c.Dir())
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	body, err := EncodeEntry(testResult())
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, body)
	if i < 0 {
		t.Fatal("body not found in the segment")
	}
	// The body's last byte belongs to the last stat's value: flipped, the
	// body still decodes, so only the checksum can tell.
	end := i + len(body) - 1
	b[end] ^= 1
	if _, err := DecodeEntry(b[i : end+1]); err != nil {
		t.Fatalf("flipped body no longer decodes (%v): the test would not reach the checksum", err)
	}
	if err := os.WriteFile(seg, b, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, cc := range []*Cache{reopen(t, c), c} {
		if r, ok := cc.Get(key); ok {
			t.Fatalf("flipped entry served (cycles %d)", r.Cycles)
		}
		if _, ok := cc.GetRaw(key); ok {
			t.Fatal("flipped entry served raw")
		}
	}
	if err := c.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	for _, cc := range []*Cache{c, reopen(t, c)} {
		r, ok := cc.Get(key)
		if !ok || r.Cycles != 1234 {
			t.Fatalf("recomputed entry not served: %v, %v", r, ok)
		}
	}
}

// TestForeignSegmentSkipped: a segment whose magic names another layout
// is never read, even when its frames are well formed.
func TestForeignSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	body, err := EncodeEntry(testResult())
	if err != nil {
		t.Fatal(err)
	}
	seg := writeSegment(t, dir, segFrame(testKey(), body))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	copy(b, "dmdcseg9")
	if err := os.WriteFile(seg, b, 0o600); err != nil {
		t.Fatal(err)
	}
	c := openCache(t, dir)
	if _, ok := c.Get(testKey()); ok {
		t.Fatal("entry served from a segment of another layout")
	}

	// A segment of the JSON entry layout, as builds before the binary
	// entries wrote it, is skipped too: its keys miss, and the recomputed
	// Put serves from a new segment.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segPrefix+"old"+segExt),
		append([]byte("dmdcseg1"), segFrame(testKey(), []byte(jsonEntry))...), 0o600); err != nil {
		t.Fatal(err)
	}
	c = openCache(t, dir)
	if n, err := c.Len(); err != nil || n != 0 {
		t.Fatalf("a dmdcseg1 segment was indexed: Len = %d, %v", n, err)
	}
	if _, ok := c.Get(testKey()); ok {
		t.Fatal("JSON entry served from a dmdcseg1 segment")
	}
	if err := c.Put(testKey(), testResult()); err != nil {
		t.Fatal(err)
	}
	if r, ok := reopen(t, c).Get(testKey()); !ok || r.Cycles != 1234 {
		t.Fatalf("recomputed entry beside a dmdcseg1 segment: %v, %v", r, ok)
	}
}

// TestDescriptorsBounded: however many segments a directory holds, a Cache
// keeps at most two open — its own, and the last other segment it read a
// hit from — and Clear closes both.
func TestDescriptorsBounded(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors")
	}
	openFDs := func() int {
		des, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(des)
	}
	dir := t.TempDir()
	body, err := EncodeEntry(testResult())
	if err != nil {
		t.Fatal(err)
	}
	const segs = 40
	for i := 0; i < segs; i++ {
		writeSegment(t, dir, segFrame(keyN(i), body))
	}
	before := openFDs()
	c := openCache(t, dir)
	for i := 0; i < segs; i++ {
		if _, ok := c.Get(keyN(i)); !ok {
			t.Fatalf("entry %d missing", i)
		}
	}
	if got := openFDs() - before; got > 1 {
		t.Fatalf("a reading Cache over %d segments holds %d descriptors, want at most 1", segs, got)
	}
	if last := c.index[keyN(segs-1)].seg; c.r == nil || c.rseg != last {
		t.Fatal("the last segment read from is not kept open for the next hit")
	}
	if err := c.Put(keyN(segs), testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(keyN(segs + 1)); ok {
		t.Fatal("hit on a key never Put")
	}
	if got := openFDs() - before; got > 2 {
		t.Fatalf("a writing Cache over %d segments holds %d descriptors, want at most 2", segs, got)
	}
	if n, err := c.Len(); err != nil || n != segs+1 {
		t.Fatalf("Len = %d, %v; want %d", n, err, segs+1)
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if got := openFDs() - before; got > 0 || c.r != nil || c.w != nil {
		t.Fatalf("after Clear a Cache holds %d descriptors, want none", got)
	}
}

// TestClose: Close releases both descriptors a Cache holds, after it
// every Get misses and every Put fails, and closing again does nothing.
func TestClose(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors")
	}
	openFDs := func() int {
		des, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(des)
	}
	dir := t.TempDir()
	if err := openCache(t, dir).Put(keyN(0), testResult()); err != nil {
		t.Fatal(err)
	}
	before := openFDs()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(keyN(0)); !ok {
		t.Fatal("entry of another Cache missing")
	}
	if err := c.Put(keyN(1), testResult()); err != nil {
		t.Fatal(err)
	}
	if got := openFDs() - before; got != 2 {
		t.Fatalf("a Cache reading one segment and writing another holds %d descriptors, want 2", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := openFDs() - before; got != 0 {
		t.Fatalf("a closed Cache holds %d descriptors", got)
	}
	if _, ok := c.Get(keyN(1)); ok {
		t.Error("a closed Cache served a hit")
	}
	if err := c.Put(keyN(2), testResult()); err == nil {
		t.Error("a closed Cache accepted a Put")
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if n, err := reopen(t, c).Len(); err != nil || n != 2 {
		t.Errorf("entries written before Close: Len = %d, %v; want 2", n, err)
	}
}
