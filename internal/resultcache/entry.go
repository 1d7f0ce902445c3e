package resultcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"dmdc/internal/core"
	"dmdc/internal/energy"
	"dmdc/internal/stats"
	"dmdc/internal/trace"
)

// An entry is one core.Result in a little-endian binary layout. An
// unsigned integer is a uvarint, a signed one a zig-zag varint, a string
// its uvarint byte length then its bytes, and a float its IEEE-754 bits as
// 8 bytes, so every value round-trips exactly:
//
//	entryMagic            8 bytes, names this layout
//	FormatVersion         uvarint
//	Benchmark             string
//	Class                 varint
//	Config, Policy        string, string
//	Cycles, Insts         uvarint, uvarint
//	Energy.Sums           NumComponents floats
//	Energy.Counts         NumComponents uvarints
//	Energy.Cycles         uvarint
//	stat count            uvarint
//	stats                 (name string, value float) per stat, in order
//
// The entry ends with the last stat: trailing bytes are an error.
const entryMagic = "dmdcent1"

// ErrIncompleteEntry reports an entry, or a result to encode, lacking a
// part every simulation result has: bytes that end before the last field,
// or a result without stats. Serving one would hand callers a result whose
// first stats lookup dereferences nil.
var ErrIncompleteEntry = errors.New("resultcache: incomplete entry")

// EncodeEntry serializes a result into the canonical entry encoding used
// both on disk and on the peer cache wire protocol (GET /v1/cache/{key}).
// A nil result, or one without stats, fails with ErrIncompleteEntry.
func EncodeEntry(r *core.Result) ([]byte, error) {
	if err := encodable(r); err != nil {
		return nil, err
	}
	return appendEntry(make([]byte, 0, entrySize(r)), r), nil
}

// encodable reports why r cannot be encoded, or nil.
func encodable(r *core.Result) error {
	if r == nil {
		return fmt.Errorf("%w: no result", ErrIncompleteEntry)
	}
	if r.Stats == nil {
		return fmt.Errorf("%w: result has no stats", ErrIncompleteEntry)
	}
	return nil
}

// entrySize returns the length of r's entry encoding, so a caller can size
// the buffer appendEntry writes into.
func entrySize(r *core.Result) int {
	n := len(entryMagic) + uvarintLen(FormatVersion) +
		stringLen(r.Benchmark) + uvarintLen(zigzag(int64(r.Class))) +
		stringLen(r.Config) + stringLen(r.Policy) +
		uvarintLen(r.Cycles) + uvarintLen(r.Insts) +
		8*energy.NumComponents + uvarintLen(r.Energy.Cycles) +
		uvarintLen(uint64(r.Stats.Len())) + 8*r.Stats.Len()
	for _, c := range r.Energy.Counts {
		n += uvarintLen(c)
	}
	for i := 0; i < r.Stats.Len(); i++ {
		name, _ := r.Stats.At(i)
		n += stringLen(name)
	}
	return n
}

// appendEntry appends r's entry encoding to b; r must be encodable.
func appendEntry(b []byte, r *core.Result) []byte {
	b = append(b, entryMagic...)
	b = binary.AppendUvarint(b, FormatVersion)
	b = appendString(b, r.Benchmark)
	b = binary.AppendVarint(b, int64(r.Class))
	b = appendString(b, r.Config)
	b = appendString(b, r.Policy)
	b = binary.AppendUvarint(b, r.Cycles)
	b = binary.AppendUvarint(b, r.Insts)
	for _, v := range r.Energy.Sums {
		b = appendFloat(b, v)
	}
	for _, c := range r.Energy.Counts {
		b = binary.AppendUvarint(b, c)
	}
	b = binary.AppendUvarint(b, r.Energy.Cycles)
	b = binary.AppendUvarint(b, uint64(r.Stats.Len()))
	for i := 0; i < r.Stats.Len(); i++ {
		name, v := r.Stats.At(i)
		b = appendFloat(appendString(b, name), v)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// zigzag maps x to the unsigned value binary.AppendVarint encodes.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// DecodeEntry parses an entry encoding, failing closed, with an error and
// never a panic: on a foreign magic (such as a JSON entry from an older
// build), on any format-version mismatch — a result produced under
// different simulator semantics must never be served as current — on
// bytes that end early (wrapping ErrIncompleteEntry) or run past the last
// stat, and on a repeated stat name. Every length prefix is checked
// against the bytes left before anything is allocated for it. The result's
// strings share one allocation, and its stats are built in one pass.
func DecodeEntry(b []byte) (*core.Result, error) {
	d := entryReader{b: b}
	if magic := d.take(len(entryMagic)); d.err == nil && string(magic) != entryMagic {
		return nil, fmt.Errorf("resultcache: entry magic %q, want %q", magic, entryMagic)
	}
	if v := d.uvarint(); d.err == nil && v != FormatVersion {
		return nil, fmt.Errorf("resultcache: entry format version %d, want %d", v, FormatVersion)
	}
	bench := d.lenPrefixed()
	class := trace.Class(d.varint())
	config, policy := d.lenPrefixed(), d.lenPrefixed()
	cycles, insts := d.uvarint(), d.uvarint()
	var br energy.Breakdown
	for i := range br.Sums {
		br.Sums[i] = d.float()
	}
	for i := range br.Counts {
		br.Counts[i] = d.uvarint()
	}
	br.Cycles = d.uvarint()
	// Each stat takes at least a length byte and a value, so the names
	// fill at most the bytes left less 9 per stat.
	n := d.count(1 + 8)
	if d.err != nil {
		return nil, d.err
	}
	d.strs.Grow(len(bench) + len(config) + len(policy) + len(b) - d.pos - 9*n)
	r := &core.Result{
		Benchmark: d.str(bench),
		Class:     class,
		Config:    d.str(config),
		Policy:    d.str(policy),
		Cycles:    cycles,
		Insts:     insts,
		Energy:    br,
	}
	names, vals := make([]string, n), make([]float64, n)
	for i := range names {
		names[i] = d.str(d.lenPrefixed())
		vals[i] = d.float()
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(b) {
		return nil, fmt.Errorf("resultcache: %d bytes after the entry's last stat", len(b)-d.pos)
	}
	set, repeated := stats.NewSetOf(names, vals)
	if repeated {
		return nil, errors.New("resultcache: entry repeats a stat name")
	}
	r.Stats = set
	return r, nil
}

// entryReader reads an entry's fields in order. The first failure sticks
// in err, and every later read returns zero.
type entryReader struct {
	b   []byte
	pos int
	err error
	// strs holds every string decoded so far. Each is cut from strs's
	// buffer, which DecodeEntry sizes to fit them all.
	strs strings.Builder
}

// short records that the entry ends inside what follows.
func (d *entryReader) short(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: it ends inside %s at byte %d", ErrIncompleteEntry, what, d.pos)
	}
}

// take returns the next n bytes of b; n must not be negative.
func (d *entryReader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.pos < n {
		d.short(fmt.Sprintf("a %d-byte field", n))
		return nil
	}
	d.pos += n
	return d.b[d.pos-n : d.pos]
}

func (d *entryReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	switch {
	case n == 0:
		d.short("a varint")
	case n < 0:
		d.err = fmt.Errorf("resultcache: varint at byte %d overflows 64 bits", d.pos)
	default:
		d.pos += n
	}
	return v
}

func (d *entryReader) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a length prefix and returns it once the bytes left can hold
// that many items of at least itemBytes bytes each.
func (d *entryReader) count(itemBytes int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if left := uint64(len(d.b) - d.pos); n > left/uint64(itemBytes) {
		d.short(fmt.Sprintf("%d items of at least %d bytes, with %d bytes left", n, itemBytes, left))
		return 0
	}
	return int(n)
}

// lenPrefixed returns the next length-prefixed run of bytes, aliasing b.
func (d *entryReader) lenPrefixed() []byte { return d.take(d.count(1)) }

// str returns p as a string cut from strs. The strings cut before stay
// valid: a Builder never overwrites bytes it has handed out.
func (d *entryReader) str(p []byte) string {
	start := d.strs.Len()
	d.strs.Write(p)
	return d.strs.String()[start:]
}

func (d *entryReader) float() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
