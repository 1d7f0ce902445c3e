package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"dmdc/internal/xrand"
)

// sample is a component with a field of every kind a layout visits, laid
// out the way the simulator's components are: a section, an identity
// field, a presence flag, a bounded list with a range check, the scalar
// primitives, a string, and an RNG.
type sample struct {
	id    string
	on    bool
	list  []uint16
	u8    uint8
	u16   uint16
	u32   uint32
	u64   uint64
	i16   int16
	i32   int32
	i64   int64
	n     int
	f     float64
	label string
	rng   *xrand.Rand
}

const sampleListMax = 4

func (s *sample) State(c *Codec) {
	c.Section("sample")
	Same(c, s.id, "identity")
	c.Bool(&s.on)
	List(c, &s.list, sampleListMax)
	for i := range s.list {
		c.U16(&s.list[i])
		if s.list[i] > 1000 {
			c.Corrupt("list value %d over 1000", s.list[i])
		}
	}
	c.U8(&s.u8)
	c.U16(&s.u16)
	c.U32(&s.u32)
	c.U64(&s.u64)
	c.I16(&s.i16)
	c.I32(&s.i32)
	c.I64(&s.i64)
	c.Int(&s.n)
	c.F64(&s.f)
	c.String(&s.label)
	c.Rand(s.rng)
}

func newSample() *sample { return &sample{id: "a", rng: xrand.New(1)} }

// encode seals whatever visit writes.
func encode(visit func(c *Codec)) []byte {
	e := NewEncoder()
	visit(&e.Codec)
	return e.Finish()
}

// decode restores blob into a fresh sample.
func decode(blob []byte) (*sample, error) {
	d, err := NewDecoder(blob)
	if err != nil {
		return nil, err
	}
	s := newSample()
	s.State(&d.Codec)
	return s, d.Finish()
}

// reseal recomputes the frame checksum after a deliberate edit.
func reseal(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[8:12], crc32.ChecksumIEEE(b[12:]))
	return b
}

// TestCheckpointCodecRoundTrip checks that a layout written once decodes
// every primitive back exactly and re-encodes to the same bytes.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	src := newSample()
	*src = sample{
		id: "a", on: true, list: []uint16{7, 1000, 0},
		u8: 0xfe, u16: 0xbeef, u32: 0xdeadbeef, u64: 1<<63 | 5,
		i16: -2, i32: -70000, i64: -1 << 40, n: -12345, f: -0.5,
		label: "héllo", rng: xrand.New(42),
	}
	src.rng.Uint64()
	blob := encode(src.State)
	got, err := decode(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if again := encode(got.State); !bytes.Equal(again, blob) {
		t.Error("re-encoding the decoded state changed the bytes")
	}
	if got.rng.State() != src.rng.State() {
		t.Error("rng state did not round-trip")
	}
	got.rng, src.rng = nil, nil
	if !reflect.DeepEqual(got, src) {
		t.Errorf("decoded %+v, want %+v", got, src)
	}
}

// TestCheckpointCodecErrors checks the kind of every decode failure. A
// corrupt blob is written as the layout's prefix up to the bad field: the
// first error must win over the truncation that follows it.
func TestCheckpointCodecErrors(t *testing.T) {
	good := func() []byte { return encode(newSample().State) }
	prefix := func(rest func(c *Codec)) []byte {
		return encode(func(c *Codec) {
			c.Section("sample")
			id := "a"
			c.String(&id)
			rest(c)
		})
	}
	u8 := func(v uint8) func(c *Codec) { return func(c *Codec) { c.U8(&v) } }
	u32 := func(v uint32) func(c *Codec) { return func(c *Codec) { c.U32(&v) } }
	cases := []struct {
		name string
		blob []byte
		want ErrKind
	}{
		{"short header", good()[:headerSize-1], Truncated},
		{"foreign magic", append([]byte("NOTACKPT"), good()[8:]...), BadMagic},
		{"flipped payload byte", func() []byte { b := good(); b[len(b)-1] ^= 0x40; return b }(), Checksum},
		{"version skew", func() []byte {
			b := good()
			binary.LittleEndian.PutUint32(b[12:16], FormatVersion+1)
			return reseal(b)
		}(), Version},
		{"truncated payload", func() []byte { b := good(); return reseal(b[:len(b)-3]) }(), Truncated},
		{"trailing bytes", encode(func(c *Codec) { newSample().State(c); u8(0)(c) }), Corrupt},
		{"bool byte of 2", prefix(u8(2)), Corrupt},
		{"length over its max", prefix(func(c *Codec) {
			u8(0)(c)
			u32(sampleListMax + 1)(c)
			c.buf = append(c.buf, make([]byte, 64)...) // room for the list
		}), Corrupt},
		{"length over the remaining bytes", prefix(func(c *Codec) { u8(0)(c); u32(3)(c) }), Corrupt},
		{"value out of range", prefix(func(c *Codec) { u8(0)(c); u32(1)(c); v := uint16(1001); c.U16(&v) }), Corrupt},
		{"wrong section tag", encode(func(c *Codec) { c.Section("other") }), Corrupt},
		{"wrong section marker", encode(u8(sectionMark + 1)), Corrupt},
		{"header field differs", encode(func(c *Codec) { c.Section("sample"); Same(c, "b", "identity") }), Mismatch},
		{"rng cursor out of range", func() []byte {
			b := good() // the RNG is the layout's last field: tap, feed, vector
			binary.LittleEndian.PutUint64(b[len(b)-8*(2+len(xrand.State{}.Vec)):], 1<<40)
			return reseal(b)
		}(), Corrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decode(tc.blob)
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("decode: got %v, want a *FormatError", err)
			}
			if fe.Kind != tc.want {
				t.Fatalf("decode: kind %v (%v), want %v", fe.Kind, err, tc.want)
			}
		})
	}
}

// TestCheckpointCodecEncodeIgnoresChecks checks that range checks are
// decode-only: encoding an out-of-range value succeeds, and decoding it
// back fails closed.
func TestCheckpointCodecEncodeIgnoresChecks(t *testing.T) {
	s := newSample()
	s.list = []uint16{5000}
	e := NewEncoder()
	s.State(&e.Codec)
	if err := e.Err(); err != nil {
		t.Fatalf("encoding reported %v", err)
	}
	var fe *FormatError
	if _, err := decode(e.Finish()); !errors.As(err, &fe) || fe.Kind != Corrupt || fe.Section != "sample" {
		t.Fatalf("decode: got %v, want Corrupt in section sample", err)
	}
}
