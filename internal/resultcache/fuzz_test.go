package resultcache

import (
	"bytes"
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
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"version":2,"result":{}}`)) // decoded with nil stats
	f.Add([]byte(`{"version":2,"result":{"Stats":{"names":["a","a"],"values":[1,2]}}}`))
	f.Add([]byte(`{"version":1,"result":{"Stats":{"names":[],"values":[]}}}`))
	f.Add([]byte(`null`))
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
			t.Fatalf("round trip unstable:\n%s\n%s", once, twice)
		}
	})
}
