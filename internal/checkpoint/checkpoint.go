// Package checkpoint defines the on-disk format for simulator state
// snapshots: a magic-tagged, CRC-protected, versioned byte stream, and the
// one set of field primitives, Codec, that both writes and reads it.
//
// Layout:
//
//	offset 0  magic   "DMDCCKPT" (8 bytes)
//	offset 8  crc32   IEEE, over everything after the checksum (4 bytes LE)
//	offset 12 version format version (4 bytes LE)
//	offset 16 payload little-endian primitive stream
//
// The checksum covers the version word so a corrupted version is reported
// as a checksum failure, while a deliberately re-checksummed version skew
// is reported as a version mismatch — the two failure modes stay
// distinguishable in tests and in the field.
//
// Each stateful component writes its payload layout exactly once, as a
// visitor: a State method that passes a pointer to every field, in format
// order, to a *Codec. The Codec behind an Encoder appends each field's
// value; the one behind a Decoder overwrites each field with the stored
// value. Range checks sit next to the fields they guard (Corrupt), and
// fields the restore target must already hold — header identity,
// presence flags — go through Same, and fields it derives from what it
// has restored go through Derived, so encoding and decoding cannot drift
// apart.
//
// The format is fail-closed: every structural anomaly (truncation, bad
// magic, checksum mismatch, unknown version, over-read, trailing bytes,
// malformed values) surfaces as a typed *FormatError. Restoring from a
// checkpoint never guesses.
//
// The payload is a canonical encoding: for any state S, encode(S) is a
// single byte string, and decode validates everything it does not
// faithfully re-emit (sorted map keys, 0/1 booleans, in-range indices).
// That gives the round-trip property FuzzCheckpointRoundTrip pins:
// decode(b) either fails typed or re-encodes to exactly b.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"dmdc/internal/xrand"
)

// FormatVersion is the current checkpoint payload version. Bump it on any
// payload layout change; old versions are rejected, never migrated — a
// checkpoint is a cache of a reproducible computation, not an archive.
const FormatVersion = 1

// headerSize is the fixed prefix before the payload: magic, crc, version.
const headerSize = 16

var magic = [8]byte{'D', 'M', 'D', 'C', 'C', 'K', 'P', 'T'}

// ErrKind classifies a checkpoint format failure.
type ErrKind int

// Format failure kinds.
const (
	// Truncated: the byte stream ends before the fixed header or before a
	// value the payload schema requires.
	Truncated ErrKind = iota
	// BadMagic: the stream does not start with the checkpoint magic — it
	// is not a checkpoint at all (a "foreign payload").
	BadMagic
	// Checksum: the CRC over version+payload does not match; the stream
	// was corrupted after it was written.
	Checksum
	// Version: the stream is well-formed but written by a different,
	// unsupported format version.
	Version
	// Corrupt: the frame is intact (magic, checksum, version all good)
	// but the payload violates the schema — an impossible length, an
	// out-of-range value, a wrong section marker, or trailing bytes.
	Corrupt
	// Mismatch: the payload decodes cleanly but was captured from an
	// incompatible simulation (different machine config, workload, seed,
	// policy, or feature set than the restore target).
	Mismatch
)

var kindNames = map[ErrKind]string{
	Truncated: "truncated",
	BadMagic:  "bad magic",
	Checksum:  "checksum mismatch",
	Version:   "version mismatch",
	Corrupt:   "corrupt payload",
	Mismatch:  "state mismatch",
}

// String returns a short name for the kind.
func (k ErrKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("errkind(%d)", int(k))
}

// FormatError is the typed error for every checkpoint decode failure.
// Kind classifies the failure, Section names the payload section being
// decoded when it happened (empty for frame-level failures), and Detail
// is a human-readable specific.
type FormatError struct {
	Kind    ErrKind
	Section string
	Detail  string
}

// Error implements error.
func (e *FormatError) Error() string {
	if e.Section != "" {
		return fmt.Sprintf("checkpoint: %s in section %q: %s", e.Kind, e.Section, e.Detail)
	}
	return fmt.Sprintf("checkpoint: %s: %s", e.Kind, e.Detail)
}

// sectionMark separates payload sections; it precedes each section tag so
// a desynchronized decode fails fast instead of misreading unrelated state.
const sectionMark = 0xA5

// Codec visits payload fields in format order. Every primitive takes a
// pointer to the field: encoding appends the field's value, decoding
// overwrites the field with the stored value. Decode errors are sticky:
// the first *FormatError is kept, every later read yields zero, and Len
// returns 0, so a visitor may run to its end and check Err once.
type Codec struct {
	buf     []byte
	off     int // decode position in buf
	dec     bool
	err     *FormatError
	section string
}

// Decoding reports whether the codec reads a stream into the visited
// state (true) or writes the state out (false). Visitors use it for the
// decode-side fix-ups a layout implies, such as rewinding a queue head.
func (c *Codec) Decoding() bool { return c.dec }

// Err returns the first decode failure, or nil.
func (c *Codec) Err() error {
	if c.err == nil {
		return nil
	}
	return c.err
}

// fail records a decode failure in the current section, unless an earlier
// one stands. It does nothing while encoding.
func (c *Codec) fail(kind ErrKind, format string, args ...any) {
	if c.dec && c.err == nil {
		c.err = &FormatError{Kind: kind, Section: c.section, Detail: fmt.Sprintf(format, args...)}
	}
}

// Corrupt fails decoding with a Corrupt error naming the current section,
// unless an earlier error stands: a visitor calls it when a field it just
// visited is out of range. It does nothing while encoding, where the
// state is the simulator's own. Call it only when the check fails, so
// its arguments are not boxed on every field.
func (c *Codec) Corrupt(format string, args ...any) { c.fail(Corrupt, format, args...) }

// take returns the next n payload bytes, or nil after recording a
// truncation or once decoding has failed.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.buf)-c.off < n {
		c.fail(Truncated, "need %d bytes, %d left", n, len(c.buf)-c.off)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// read1, read2, read4 and read8 decode the next little-endian value of
// their width, or 0 after recording a truncation or once decoding has
// failed. They stay out of line so the primitives that call them inline,
// and apart so each fast path is a single length check.
func (c *Codec) read1() uint8 {
	if b := c.buf[c.off:]; c.err == nil && len(b) >= 1 {
		c.off++
		return b[0]
	}
	c.take(1)
	return 0
}

func (c *Codec) read2() uint16 {
	if b := c.buf[c.off:]; c.err == nil && len(b) >= 2 {
		c.off += 2
		return binary.LittleEndian.Uint16(b)
	}
	c.take(2)
	return 0
}

func (c *Codec) read4() uint32 {
	if b := c.buf[c.off:]; c.err == nil && len(b) >= 4 {
		c.off += 4
		return binary.LittleEndian.Uint32(b)
	}
	c.take(4)
	return 0
}

func (c *Codec) read8() uint64 {
	if b := c.buf[c.off:]; c.err == nil && len(b) >= 8 {
		c.off += 8
		return binary.LittleEndian.Uint64(b)
	}
	c.take(8)
	return 0
}

// U8 visits one byte.
func (c *Codec) U8(p *uint8) {
	if c.dec {
		*p = c.read1()
		return
	}
	c.buf = append(c.buf, *p)
}

// U16 visits a little-endian uint16.
func (c *Codec) U16(p *uint16) {
	if c.dec {
		*p = c.read2()
		return
	}
	c.buf = binary.LittleEndian.AppendUint16(c.buf, *p)
}

// U32 visits a little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if c.dec {
		*p = c.read4()
		return
	}
	c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
}

// U64 visits a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if c.dec {
		*p = c.read8()
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
}

// I16 visits a little-endian int16 (two's complement).
func (c *Codec) I16(p *int16) {
	if c.dec {
		*p = int16(c.read2())
		return
	}
	c.buf = binary.LittleEndian.AppendUint16(c.buf, uint16(*p))
}

// I32 visits a little-endian int32 (two's complement).
func (c *Codec) I32(p *int32) {
	if c.dec {
		*p = int32(c.read4())
		return
	}
	c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*p))
}

// I64 visits a little-endian int64 (two's complement).
func (c *Codec) I64(p *int64) {
	if c.dec {
		*p = int64(c.read8())
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*p))
}

// Int visits an int as an int64.
func (c *Codec) Int(p *int) {
	if c.dec {
		*p = int(c.read8())
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*p))
}

// F64 visits a float64 by its IEEE-754 bit pattern.
func (c *Codec) F64(p *float64) {
	if c.dec {
		*p = math.Float64frombits(c.read8())
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
}

// Bool visits a bool as a single 0/1 byte; decoding any other byte is
// Corrupt.
func (c *Codec) Bool(p *bool) {
	if c.dec {
		c.readBool(p)
		return
	}
	c.buf = append(c.buf, boolByte(*p))
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// readBool is Bool's decoding half, out of line so Bool inlines.
func (c *Codec) readBool(p *bool) {
	v := c.read1()
	if v > 1 {
		c.Corrupt("bool byte %#x is neither 0 nor 1", v)
	}
	*p = v == 1
}

// Len visits a list length: encoding writes n and returns it; decoding
// returns the stored length after checking that it is at most max and
// that the remaining payload could hold that many values (at least one
// byte each), so a corrupted length cannot drive a huge allocation. It
// returns 0 once decoding has failed.
func (c *Codec) Len(n, max int) int {
	v := uint32(n)
	c.U32(&v)
	if !c.dec {
		return n
	}
	switch left := len(c.buf) - c.off; {
	case c.err != nil:
		return 0
	case int(v) > max:
		c.Corrupt("count %d exceeds maximum %d", v, max)
		return 0
	case int(v) > left:
		c.Corrupt("count %d exceeds %d remaining bytes", v, left)
		return 0
	}
	return int(v)
}

// List visits the length of the list *s (at most max elements; see Len).
// Decoding resizes *s to the stored length, reusing its backing array
// when it is large enough; the caller then visits every element.
func List[T any](c *Codec, s *[]T, max int) {
	if n := c.Len(len(*s), max); c.dec {
		*s = slices.Grow((*s)[:0], n)[:n]
	}
}

// String visits a length-prefixed string.
func (c *Codec) String(p *string) {
	n := c.Len(len(*p), 1<<20)
	if !c.dec {
		c.buf = append(c.buf, *p...)
		return
	}
	*p = string(c.take(n))
}

// Section visits a section boundary with the given tag. Decoding must
// meet the same tags in the same order; a decode failure names the last
// section entered.
func (c *Codec) Section(tag string) {
	mark := uint8(sectionMark)
	c.U8(&mark)
	if mark != sectionMark {
		c.Corrupt("expected section marker for %q, got byte %#x", tag, mark)
		return
	}
	got := tag
	c.String(&got)
	if got != tag {
		c.Corrupt("expected section %q, got %q", tag, got)
		return
	}
	c.section = tag
}

// Rand visits the full state of a deterministic RNG.
func (c *Codec) Rand(r *xrand.Rand) {
	st := r.State()
	c.Int(&st.Tap)
	c.Int(&st.Feed)
	for i := range st.Vec {
		c.I64(&st.Vec[i])
	}
	if c.dec && c.err == nil {
		if err := r.SetState(st); err != nil {
			c.Corrupt("rng state: %v", err)
		}
	}
}

// Same visits a field the restore target must already hold: a header
// identity field or a presence flag. Encoding writes want; decoding reads
// the stored value and fails with Mismatch unless it equals want. what
// names the field in the error.
func Same[T string | bool | uint8 | uint32 | uint64 | int64](c *Codec, want T, what string) {
	same(c, want, what, Mismatch)
}

// Derived is Same for a field the decoder derives from state it has
// already restored, which the payload records again: a stored value that
// differs from the derived one is Corrupt.
func Derived[T string | bool | uint8 | uint32 | uint64 | int64](c *Codec, want T, what string) {
	same(c, want, what, Corrupt)
}

// same is the body of Same and Derived; kind classifies a mismatch.
func same[T string | bool | uint8 | uint32 | uint64 | int64](c *Codec, want T, what string, kind ErrKind) {
	got := want
	switch p := any(&got).(type) {
	case *string:
		c.String(p)
	case *bool:
		c.Bool(p)
	case *uint8:
		c.U8(p)
	case *uint32:
		c.U32(p)
	case *uint64:
		c.U64(p)
	case *int64:
		c.I64(p)
	}
	if got != want {
		c.fail(kind, "%s %v, restore target has %v", what, got, want)
	}
}

// Encoder builds a checkpoint byte stream: visit the state through the
// embedded Codec, then call Finish to seal the frame and take the bytes.
type Encoder struct {
	Codec
}

// NewEncoder returns an encoder with the frame header reserved.
func NewEncoder() *Encoder { return NewEncoderSize(0) }

// NewEncoderSize is NewEncoder with room for a size-byte checkpoint before
// the buffer grows: a caller that knows the length of a previous save of
// the same state sizes the next one exactly.
func NewEncoderSize(size int) *Encoder {
	return &Encoder{Codec{buf: make([]byte, headerSize, max(size, 4096))}}
}

// Finish seals the frame and returns the complete checkpoint bytes. The
// encoder must not be used afterwards.
func (e *Encoder) Finish() []byte {
	copy(e.buf[0:8], magic[:])
	binary.LittleEndian.PutUint32(e.buf[12:16], FormatVersion)
	crc := crc32.ChecksumIEEE(e.buf[12:])
	binary.LittleEndian.PutUint32(e.buf[8:12], crc)
	return e.buf
}

// Decoder reads a checkpoint byte stream into the state visited through
// the embedded Codec.
type Decoder struct {
	Codec
}

// NewDecoder validates the frame (length, magic, checksum, version) and
// returns a decoder positioned at the start of the payload.
func NewDecoder(b []byte) (*Decoder, error) {
	if len(b) < headerSize {
		return nil, &FormatError{Kind: Truncated, Detail: fmt.Sprintf("stream is %d bytes, frame header needs %d", len(b), headerSize)}
	}
	if string(b[0:8]) != string(magic[:]) {
		return nil, &FormatError{Kind: BadMagic, Detail: fmt.Sprintf("magic %q is not a checkpoint", b[0:8])}
	}
	wantCRC := binary.LittleEndian.Uint32(b[8:12])
	gotCRC := crc32.ChecksumIEEE(b[12:])
	if wantCRC != gotCRC {
		return nil, &FormatError{Kind: Checksum, Detail: fmt.Sprintf("crc32 %#08x, stream says %#08x", gotCRC, wantCRC)}
	}
	ver := binary.LittleEndian.Uint32(b[12:16])
	if ver != FormatVersion {
		return nil, &FormatError{Kind: Version, Detail: fmt.Sprintf("format version %d, this build reads version %d", ver, FormatVersion)}
	}
	return &Decoder{Codec{buf: b, off: headerSize, dec: true}}, nil
}

// Finish returns the first decode failure, or a Corrupt error if payload
// bytes remain unread: trailing bytes mean the writer and reader disagree
// about the schema — fail closed.
func (d *Decoder) Finish() error {
	if left := len(d.buf) - d.off; left != 0 {
		d.Corrupt("%d trailing bytes after payload", left)
	}
	return d.Err()
}
