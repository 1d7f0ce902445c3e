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
		first := r.Next()
		for i := 1; i < r.Len(); i++ {
			r.Next()
		}
		again := r.Next()
		if again.Seq != first.Seq+uint64(r.Len()) {
			t.Fatalf("instruction %d has seq %d, want %d", r.Len(), again.Seq, first.Seq+uint64(r.Len()))
		}
		if again.Seq = first.Seq; again != first {
			t.Fatalf("replay of %d instructions did not wrap: got %v, want %v", r.Len(), &again, &first)
		}
	})
}
