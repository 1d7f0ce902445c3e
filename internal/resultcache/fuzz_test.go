package resultcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeEntry holds the entry decoder to its trust-boundary contract:
// any input either fails with an error, or decodes into a result with
// stats whose EncodeEntry→DecodeEntry round trip is stable. It must never
// panic.
func FuzzDecodeEntry(f *testing.F) {
	valid, err := EncodeEntry(testResult())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Truncated at each field boundary.
	end := 0
	for _, field := range entryFields(testResult()) {
		f.Add(valid[:end])
		end += len(field)
	}
	// A wrong version, a repeated stat name, trailing bytes, a 2^63 length
	// prefix, an overflowing varint, and a JSON entry of an older build.
	for _, name := range []string{"newer version", "repeated stat", "trailing byte", "2^63 length",
		"overflowed varint", "json entry"} {
		f.Add(malformedEntries()[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeEntry(data)
		if err != nil {
			return
		}
		if r == nil || r.Stats == nil {
			t.Fatalf("accepted entry decoded without stats: %+v", r)
		}
		r.Stats.Get("cycles") // the lookup a nil set would crash on
		once, err := EncodeEntry(r)
		if err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		r2, err := DecodeEntry(once)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		twice, err := EncodeEntry(r2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("round trip unstable:\n%x\n%x", once, twice)
		}
	})
}

// FuzzSegmentScan holds the segment reader to its fail-closed contract:
// any bytes in a segment file either index nothing or index entries that,
// when served, pass DecodeEntry. Opening, reading and refreshing must
// never panic.
func FuzzSegmentScan(f *testing.F) {
	body, err := EncodeEntry(testResult())
	if err != nil {
		f.Fatal(err)
	}
	good := append([]byte(segMagic), segFrame(testKey(), body)...)
	good = append(good, segFrame(keyN(1), body)...)
	f.Add(good)
	f.Add(good[:len(good)-7])                                                                    // torn tail
	f.Add(append([]byte(segMagic), segFrame(testKey(), []byte(`{"version":2,"result":{}}`))...)) // JSON entry
	f.Add(append([]byte(segMagic), segFrame(testKey(), body[:len(body)/2])...))                  // checksummed garbage
	f.Add(append([]byte(segMagic), segFrame("", body)...))                                       // empty key
	f.Add(append([]byte(segMagic), append([]byte{0, 0, 0, 0xff}, good[8:]...)...))               // absurd length
	f.Add([]byte(segMagic))
	f.Add([]byte(segMagic[:5]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segPrefix+"fuzz"+segExt), data, 0o600); err != nil {
			t.Fatal(err)
		}
		c := openCache(t, dir)
		keys := make([]string, 0, len(c.index))
		for k := range c.index {
			keys = append(keys, k)
		}
		for _, k := range append(keys, testKey()) {
			if raw, ok := c.GetRaw(k); ok {
				if _, err := DecodeEntry(raw); err != nil {
					t.Fatalf("GetRaw served an entry DecodeEntry rejects: %v", err)
				}
			}
			if r, ok := c.Get(k); ok && r.Stats == nil {
				t.Fatalf("Get served a result without stats")
			}
		}
	})
}
