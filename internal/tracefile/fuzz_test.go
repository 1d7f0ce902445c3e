package tracefile

import (
	"bytes"
	"testing"

	"dmdc/internal/core"
	"dmdc/internal/trace"
)

// FuzzTraceReader holds the trace decoder to its trust-boundary contract:
// any input either fails with an error, or yields a non-empty reader whose
// replay wraps past the end without panicking.
func FuzzTraceReader(f *testing.F) {
	var valid bytes.Buffer
	if err := RecordBenchmark(&valid, "gzip", 64); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(hugeCountHeader())
	f.Add(append([]byte(magic), 0xFF, 0xFF, 0xFF, 0x7F)) // huge name length
	var one bytes.Buffer
	if err := Record(&one, oneInstSource{}, core.WorkloadMeta{Name: "x", Class: trace.INT}, 0x400000, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(one.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if r.Len() == 0 {
			t.Fatal("accepted trace has no instructions")
		}
		for i := 0; i <= r.Len(); i++ {
			r.Next()
		}
		if !r.Wrapped() {
			t.Fatalf("replay of %d instructions did not wrap after %d Next calls", r.Len(), r.Len()+1)
		}
	})
}
