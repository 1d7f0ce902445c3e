package tracefile

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/energy"
	"dmdc/internal/isa"
	"dmdc/internal/lsq"
	"dmdc/internal/trace"
)

func recordGzip(t *testing.T, n uint64) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := RecordBenchmark(&buf, "gzip", n); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestRoundTripExact(t *testing.T) {
	const n = 20000
	buf := recordGzip(t, n)
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Len() != n {
		t.Fatalf("len = %d, want %d", rd.Len(), n)
	}
	// Replay must match the generator instruction-for-instruction.
	prof, _ := trace.ByName("gzip")
	g := trace.NewGenerator(prof)
	for i := 0; i < n; i++ {
		want := g.Next()
		got := rd.Next()
		if got != want {
			t.Fatalf("instruction %d: got %v, want %v", i, &got, &want)
		}
	}
}

func TestHeaderMetadata(t *testing.T) {
	buf := recordGzip(t, 100)
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	hdr := rd.Header()
	if hdr.Name != "gzip" || hdr.Class != trace.INT || hdr.Count != 100 {
		t.Errorf("header wrong: %+v", hdr)
	}
	meta := rd.Meta()
	if !strings.HasSuffix(meta.Name, ".trace") || meta.InvBytes == 0 {
		t.Errorf("meta wrong: %+v", meta)
	}
	if rd.EntryPC() == 0 {
		t.Error("entry PC missing")
	}
}

func TestWrapAround(t *testing.T) {
	buf := recordGzip(t, 50)
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var insts []isa.Inst
	for i := 0; i < 120; i++ {
		insts = append(insts, rd.Next())
	}
	// The 51st instruction replays the first, and sequence numbers keep
	// increasing across the wrap.
	if again, first := insts[50], insts[0]; again.PC != first.PC || again.Op != first.Op || again.Addr != first.Addr {
		t.Fatalf("reader did not wrap: instruction 50 is %v, instruction 0 %v", &again, &first)
	}
	for i := 1; i < len(insts); i++ {
		if insts[i].Seq != insts[i-1].Seq+1 {
			t.Fatalf("seq discontinuity at %d: %d -> %d", i, insts[i-1].Seq, insts[i].Seq)
		}
	}
}

func TestCorruptInputs(t *testing.T) {
	buf := recordGzip(t, 100)
	data := buf.Bytes()
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOTATRACE")},
		{"truncated header", data[:10]},
		{"truncated body", data[:len(data)/2]},
	}
	for _, c := range cases {
		if _, err := NewReader(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// A recorded trace replayed through the pipeline must commit the identical
// instruction stream: the lockstep oracle, fed by the generator that
// recorded the trace, checks every commit.
func TestReplayThroughPipeline(t *testing.T) {
	const n = 15000
	buf := recordGzip(t, n)
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Config2()
	em := energy.NewModel(cfg.CoreSize())
	pol := lsq.Must(lsq.NewDMDC(lsq.DefaultDMDCConfig(cfg.CheckTable, cfg.ROBSize), em))
	prof, _ := trace.ByName("gzip")
	ref := core.FromGenerator(trace.NewGenerator(prof))
	sim := core.MustSim(core.NewWithWorkload(cfg, rd, pol, em, core.WithOracle(ref)))
	r, err := sim.RunContext(context.Background(), n-100) // stay within one pass of the trace
	if err != nil {
		t.Fatalf("replay diverged from the recorded trace: %v", err)
	}
	if r.IPC() <= 0 {
		t.Error("replay stalled")
	}
	if r.Benchmark != "gzip.trace" {
		t.Errorf("result name = %q", r.Benchmark)
	}
}

// Replay runs are deterministic.
func TestReplayDeterminism(t *testing.T) {
	buf := recordGzip(t, 10000)
	run := func() uint64 {
		rd, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Config1()
		em := energy.NewModel(cfg.CoreSize())
		pol := lsq.Must(lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize}, em))
		return core.MustSim(core.NewWithWorkload(cfg, rd, pol, em)).MustRun(9000).Cycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("replay not deterministic: %d vs %d cycles", a, b)
	}
}

// The format is compact: well under the naive 40+ bytes per instruction.
func TestCompactness(t *testing.T) {
	const n = 50000
	buf := recordGzip(t, n)
	perInst := float64(buf.Len()) / n
	if perInst > 12 {
		t.Errorf("%.1f bytes/inst — encoding regressed", perInst)
	}
}

// Recording from an arbitrary InstSource (not just benchmarks) works.
func TestRecordCustomSource(t *testing.T) {
	src := &countingSource{}
	var buf bytes.Buffer
	meta := core.WorkloadMeta{Name: "custom", Class: trace.FP, Seed: 1}
	if err := Record(&buf, src, meta, 0x400000, 64); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Len() != 64 || rd.Header().Name != "custom" {
		t.Errorf("custom record wrong: %+v", rd.Header())
	}
	first := rd.Next()
	if first.Op != isa.OpIAlu || first.PC != 0x400000 {
		t.Errorf("first inst wrong: %v", &first)
	}
}

type countingSource struct{ n uint64 }

func (s *countingSource) Next() isa.Inst {
	in := isa.Inst{
		Seq: s.n, PC: 0x400000 + s.n*4, Op: isa.OpIAlu,
		Dest: 8, Src1: 1, Src2: 2,
	}
	s.n++
	return in
}

func TestUnknownBenchmarkRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := RecordBenchmark(&buf, "nonesuch", 10); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
