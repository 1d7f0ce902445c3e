package trace

import (
	"bytes"
	"sync"
	"testing"

	"dmdc/internal/isa"
)

// replayer returns a reader at the start of tape, replaying through a
// generator of its own with wrong-path reuse set as asked.
func replayer(tape *Tape, reuse bool) (*TapeReader, *Generator) {
	g, r := new(Generator), new(TapeReader)
	r.Reset(g, tape)
	if reuse {
		g.EnableWrongPathReuse()
	}
	return r, g
}

// TestTapeStreamDigests: replaying a tape yields every profile's pinned
// stream, wrong paths included, whether the tape outlasts the stream or
// ends part way and hands off to live generation. -short (the race
// target) checks three profiles.
func TestTapeStreamDigests(t *testing.T) {
	const n = 40000
	profiles := Profiles()
	if testing.Short() {
		profiles = []Profile{mustProfile(t, "gcc"), mustProfile(t, "mcf"), mustProfile(t, "swim")}
	}
	for _, p := range profiles {
		for i, length := range []int{n + 64, 17_321, 1} {
			var tape Tape
			tape.Record(p, length)
			r, g := replayer(&tape, i%2 == 0)
			if got, want := hashPath(r, g, n), streamDigests[p.Name]; got != want {
				t.Errorf("%s over a %d-instruction tape: stream digest %s, want %s", p.Name, length, got, want)
			}
		}
	}
}

// TestTapeHandOffState: a reader that has run past its tape leaves its
// generator exactly where a live generator that produced the same
// instructions and followed the same wrong paths stands — both checkpoint
// to the same bytes. Every batch the reader returns ends at a branch, at
// the end of dst, or at the end of the tape.
func TestTapeHandOffState(t *testing.T) {
	const tapeLen = 5000
	for _, name := range []string{"gcc", "swim", "mcf"} {
		p := mustProfile(t, name)
		var tape Tape
		tape.Record(p, tapeLen)
		r, g := replayer(&tape, true)
		live := NewGenerator(p)
		live.EnableWrongPathReuse()
		var a, b [8]isa.Inst
		for done := 0; done < 2*tapeLen; {
			n := r.NextBatch(a[:])
			if m := live.NextBatch(b[:n]); m != n {
				t.Fatalf("%s: replayed a batch of %d where live generation gave %d", name, n, m)
			}
			if last := a[n-1]; n < len(a) && !last.Op.IsBranch() && done+n != tapeLen {
				t.Fatalf("%s: batch of %d at %d stops short without a branch", name, n, done)
			}
			for i := 0; i < n; i++ {
				if a[i] != b[i] {
					t.Fatalf("%s: instruction %d replayed %+v, live %+v", name, done+i, a[i], b[i])
				}
			}
			done += n
			if last := a[n-1]; last.Op.IsBranch() && done%3 == 0 {
				wr, wl := g.WrongPath(last.PC, !last.Taken, uint64(done)), live.WrongPath(last.PC, !last.Taken, uint64(done))
				for j := 0; j < 12; j++ {
					if x, y := wr.Next(), wl.Next(); x != y {
						t.Fatalf("%s: wrong path at %d, instruction %d: replay %+v, live %+v", name, done, j, x, y)
					}
				}
			}
		}
		if !bytes.Equal(encodeGenerator(g), encodeGenerator(live)) {
			t.Errorf("%s: generator state after the hand-off differs from live generation's", name)
		}
	}
}

// TestTapeConcurrentReaders: several goroutines replay one tape at once,
// each through its own generator, and each gets the live stream. Under
// -race this proves a recorded tape is read-only.
func TestTapeConcurrentReaders(t *testing.T) {
	const n = 12000
	p := mustProfile(t, "gcc")
	want := hashStream(p, n, true)
	var tape Tape
	tape.Record(p, n/2) // every reader also hands off
	got := make([]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, g := replayer(&tape, true)
			got[i] = hashPath(r, g, n)
		}(i)
	}
	wg.Wait()
	for i, h := range got {
		if h != want {
			t.Errorf("reader %d: stream digest %s, want %s", i, h, want)
		}
	}
}

// TestTapeRecordAgain: recording into a used tape, for another profile,
// is the recording a fresh tape makes.
func TestTapeRecordAgain(t *testing.T) {
	var used, fresh Tape
	used.Record(mustProfile(t, "swim"), 3000)
	used.Record(mustProfile(t, "gcc"), 2000)
	fresh.Record(mustProfile(t, "gcc"), 2000)
	if used.Profile() != fresh.Profile() || len(used.recs) != 2000 {
		t.Fatalf("re-recorded tape holds %s × %d", used.Profile().Name, len(used.recs))
	}
	for i := range fresh.recs {
		if used.recs[i] != fresh.recs[i] {
			t.Fatalf("record %d: %+v, fresh tape %+v", i, used.recs[i], fresh.recs[i])
		}
	}
	if !bytes.Equal(encodeGenerator(&used.end), encodeGenerator(&fresh.end)) {
		t.Error("re-recorded tape's end state differs from a fresh tape's")
	}
}

// BenchmarkTapeReplay measures replaying a recorded committed path, the
// counterpart of BenchmarkNextBatch; one op is one instruction.
func BenchmarkTapeReplay(b *testing.B) {
	const length = 1 << 16
	var tape Tape
	tape.Record(mustProfile(b, "gcc"), length)
	r, g := replayer(&tape, true)
	var buf [64]isa.Inst
	b.ResetTimer()
	for n, read := 0, 0; n < b.N; {
		if read == length {
			r.Reset(g, &tape)
			read = 0
		}
		k := r.NextBatch(buf[:min(len(buf), length-read)])
		read += k
		n += k
	}
}
