package resultcache

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dmdc/internal/core"
	"dmdc/internal/energy"
	"dmdc/internal/stats"
	"dmdc/internal/trace"
)

var updateEntry = flag.Bool("update", false, "rewrite testdata/entry.golden")

// entryFields returns r's entry encoding cut at its field boundaries: the
// magic, the version, each Result scalar, each energy sum and count, the
// energy cycles, the stat count, then each stat's name and value. Joined,
// they are EncodeEntry(r); TestEntryFields checks that they stay so.
func entryFields(r *core.Result) [][]byte {
	fields := [][]byte{
		[]byte(entryMagic),
		binary.AppendUvarint(nil, FormatVersion),
		appendString(nil, r.Benchmark),
		binary.AppendVarint(nil, int64(r.Class)),
		appendString(nil, r.Config),
		appendString(nil, r.Policy),
		binary.AppendUvarint(nil, r.Cycles),
		binary.AppendUvarint(nil, r.Insts),
	}
	for _, v := range r.Energy.Sums {
		fields = append(fields, appendFloat(nil, v))
	}
	for _, c := range r.Energy.Counts {
		fields = append(fields, binary.AppendUvarint(nil, c))
	}
	fields = append(fields, binary.AppendUvarint(nil, r.Energy.Cycles),
		binary.AppendUvarint(nil, uint64(r.Stats.Len())))
	for i := 0; i < r.Stats.Len(); i++ {
		name, v := r.Stats.At(i)
		fields = append(fields, appendString(nil, name), appendFloat(nil, v))
	}
	return fields
}

// jsonEntry is an entry as builds before the binary layout encoded one: a
// JSON body under the same FormatVersion.
const jsonEntry = `{"version":2,"result":{"Benchmark":"gzip","Class":0,"Config":"config2","Policy":"dmdc",` +
	`"Cycles":1234,"Insts":1000,"Energy":{"Sums":[42.5],"Counts":[17],"Cycles":1234},` +
	`"Stats":{"names":["cycles"],"values":[1234]}}}`

// Indices into entryFields of fields the malformed-entry cases replace.
const (
	fieldVersion   = 1
	fieldBenchmark = 2
)

// fieldStat returns the index into entryFields of stat i's name; its value
// follows it.
func fieldStat(i int) int { return 8 + 2*energy.NumComponents + 2 + 2*i }

// joinFields concatenates fields into one entry.
func joinFields(fields [][]byte) []byte { return bytes.Join(fields, nil) }

// malformedEntries returns entries built from testResult's fields that
// DecodeEntry must reject, each under a name saying why.
func malformedEntries() map[string][]byte {
	r := testResult()
	valid := joinFields(entryFields(r))
	with := func(i int, b []byte) []byte {
		f := entryFields(r)
		f[i] = b
		return joinFields(f)
	}
	name0, _ := r.Stats.At(0)
	return map[string][]byte{
		"json entry":        []byte(jsonEntry),
		"newer version":     with(fieldVersion, binary.AppendUvarint(nil, FormatVersion+1)),
		"older version":     with(fieldVersion, binary.AppendUvarint(nil, FormatVersion-1)),
		"trailing byte":     append(valid, 0),
		"repeated stat":     with(fieldStat(1), appendString(nil, name0)),
		"2^63 length":       with(fieldBenchmark, binary.AppendUvarint(nil, 1<<63)),
		"overflowed varint": with(fieldBenchmark, bytes.Repeat([]byte{0xff}, 11)),
	}
}

// goldenResult is a fixed result whose every field is set, pinned by
// TestEntryGolden.
func goldenResult() *core.Result {
	var br energy.Breakdown
	for i := range br.Sums {
		br.Sums[i] = float64(i) * 1.25
		br.Counts[i] = uint64(i * 300)
	}
	br.Cycles = 51_234
	set := stats.NewSet()
	set.Put("cycles", 51_234)
	set.Put("committed", 50_000)
	set.Put("ipc", 50_000.0/51_234)
	set.Put("replays_false", 0)
	return &core.Result{
		Benchmark: "gcc", Class: trace.INT, Config: "config2", Policy: "dmdc",
		Cycles: 51_234, Insts: 50_000, Energy: br, Stats: set,
	}
}

// TestEntryGolden pins the entry encoding of one fixed result. Cached
// entries and peer transfers depend on it, so any drift — a field added,
// dropped, reordered or written differently — fails here first. After an
// intentional layout change, change entryMagic (and segMagic, so old
// segments are skipped) and re-pin with
//
//	go test ./internal/resultcache -run TestEntryGolden -update
func TestEntryGolden(t *testing.T) {
	b, err := EncodeEntry(goldenResult())
	if err != nil {
		t.Fatal(err)
	}
	got := hex.Dump(b)
	path := filepath.Join("testdata", "entry.golden")
	if *updateEntry {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden entry (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("entry bytes changed:\n%s\npinned:\n%s", got, want)
	}
}

// TestEntryFields: entryFields cuts exactly the EncodeEntry bytes, and
// EncodeEntry sizes its buffer exactly.
func TestEntryFields(t *testing.T) {
	for _, r := range []*core.Result{testResult(), goldenResult(), filledResult(t)} {
		b, err := EncodeEntry(r)
		if err != nil {
			t.Fatal(err)
		}
		if joined := joinFields(entryFields(r)); !bytes.Equal(joined, b) {
			t.Fatalf("entryFields drifted from EncodeEntry:\n%x\n%x", joined, b)
		}
		if len(b) != cap(b) {
			t.Errorf("EncodeEntry: %d bytes in a %d-byte buffer; entrySize is off", len(b), cap(b))
		}
	}
}

// filledResult returns a Result whose every exported field, and every
// exported field of its energy Breakdown, is set by reflection to a
// distinct non-zero value; a field of a kind it cannot fill fails the
// test. A field added to either struct is thereby filled, so a codec that
// forgets it fails the round trip.
func filledResult(t *testing.T) *core.Result {
	t.Helper()
	r := new(core.Result)
	next := 0
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		next++
		switch v.Kind() {
		case reflect.String:
			v.SetString(path)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(int64(next))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(uint64(next) << 40)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(float64(next) + 0.1)
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() {
					fill(v.Field(i), path+"."+f.Name)
				}
			}
		case reflect.Pointer:
			if v.Type() != reflect.TypeOf((*stats.Set)(nil)) {
				t.Fatalf("%s: cannot fill a %s", path, v.Type())
			}
			set := stats.NewSet()
			set.Put("a", float64(next))
			set.Put(path, -float64(next))
			v.Set(reflect.ValueOf(set))
		default:
			t.Fatalf("%s: cannot fill a %s", path, v.Type())
		}
		if v.IsZero() {
			t.Fatalf("%s: still zero after filling", path)
		}
	}
	fill(reflect.ValueOf(r).Elem(), "Result")
	return r
}

// TestEntryRoundTripEveryField: DecodeEntry(EncodeEntry(r)) equals r field
// for field, with every field of Result and of its energy Breakdown set.
func TestEntryRoundTripEveryField(t *testing.T) {
	want := filledResult(t)
	b, err := EncodeEntry(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	wv, gv := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	for i := 0; i < wv.NumField(); i++ {
		name := wv.Type().Field(i).Name
		if name == "Stats" {
			continue // compared by content below
		}
		if w, g := wv.Field(i).Interface(), gv.Field(i).Interface(); !reflect.DeepEqual(w, g) {
			t.Errorf("%s: decoded %v, encoded %v", name, g, w)
		}
	}
	if !reflect.DeepEqual(got.Stats.Names(), want.Stats.Names()) {
		t.Errorf("Stats names: decoded %v, encoded %v", got.Stats.Names(), want.Stats.Names())
	}
	for _, n := range want.Stats.Names() {
		if got.Stats.Get(n) != want.Stats.Get(n) {
			t.Errorf("Stats %s: decoded %g, encoded %g", n, got.Stats.Get(n), want.Stats.Get(n))
		}
	}
}

// TestEntryFloatsExact: floats are stored as their bits, so NaN payloads,
// infinities, negative zero and subnormals round-trip exactly.
func TestEntryFloatsExact(t *testing.T) {
	vals := []float64{math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, 1.0 / 3}
	r := testResult()
	r.Energy.Sums[1] = vals[0]
	for i, v := range vals {
		r.Stats.Put(string(rune('a'+i)), v)
	}
	b, err := EncodeEntry(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Energy.Sums[1]) != math.Float64bits(vals[0]) {
		t.Errorf("energy sum %x, want %x", math.Float64bits(got.Energy.Sums[1]), math.Float64bits(vals[0]))
	}
	for i, v := range vals {
		if g := got.Stats.Get(string(rune('a' + i))); math.Float64bits(g) != math.Float64bits(v) {
			t.Errorf("stat %c: bits %x, want %x", 'a'+i, math.Float64bits(g), math.Float64bits(v))
		}
	}
}

// TestDecodeEntryRejectsMalformed: a foreign magic, a version skew,
// trailing bytes, a repeated stat name, a length prefix beyond the bytes
// left and an overflowing varint each fail with an error, never a panic
// or a result.
func TestDecodeEntryRejectsMalformed(t *testing.T) {
	for name, b := range malformedEntries() {
		if r, err := DecodeEntry(b); err == nil || r != nil {
			t.Errorf("%s: DecodeEntry = (%v, %v), want an error", name, r, err)
		}
	}
	if _, err := DecodeEntry(malformedEntries()["2^63 length"]); !errors.Is(err, ErrIncompleteEntry) {
		t.Errorf("2^63 length: %v, want ErrIncompleteEntry", err)
	}
}
