// Package tracefile records instruction streams to a compact binary
// format and replays them as simulator workloads. This is the analogue of
// SimpleScalar's trace-driven mode: a recorded trace captures the exact
// committed path of a synthetic benchmark (or any other source) so runs
// can be archived, diffed, and replayed bit-identically — including by
// tools that do not link the workload generator.
//
// Format (little-endian, after a fixed header):
//
//	magic   "DMDCTRC1"
//	name    uvarint length + bytes
//	class   byte (0 INT, 1 FP)
//	seed    varint
//	entry   uvarint (entry PC)
//	invBase uvarint, invBytes uvarint
//	count   uvarint (number of instructions)
//	insts   count records, delta/varint encoded
//
// Each instruction record:
//
//	op      byte
//	flags   byte (bit0: taken, bit1: has dest, bit2: has src1, bit3: has src2)
//	pc      varint delta from previous pc
//	dest/src1/src2 bytes (when present)
//	mem ops: addr varint delta from previous addr, size byte
//	branches: target uvarint
package tracefile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dmdc/internal/core"
	"dmdc/internal/isa"
	"dmdc/internal/trace"
)

const magic = "DMDCTRC1"

// maxPrealloc caps the instruction slice NewReader sizes from the header.
const maxPrealloc = 1 << 16

// Header carries the workload metadata stored in a trace file.
type Header struct {
	Name     string
	Class    trace.Class
	Seed     int64
	EntryPC  uint64
	InvBase  uint64
	InvBytes uint64
	Count    uint64
}

// Record captures n committed-path instructions from src into w.
func Record(w io.Writer, src core.InstSource, meta core.WorkloadMeta, entryPC uint64, n uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(meta.Name)))
	bw.WriteString(meta.Name)
	bw.WriteByte(byte(meta.Class))
	writeVarint(bw, meta.Seed)
	writeUvarint(bw, entryPC)
	writeUvarint(bw, meta.InvBase)
	writeUvarint(bw, meta.InvBytes)
	writeUvarint(bw, n)
	var prevPC, prevAddr uint64
	for i := uint64(0); i < n; i++ {
		in := src.Next()
		if err := writeInst(bw, &in, &prevPC, &prevAddr); err != nil {
			return fmt.Errorf("tracefile: record instruction %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// RecordBenchmark records n instructions of a named synthetic benchmark.
func RecordBenchmark(w io.Writer, benchmark string, n uint64) error {
	prof, err := trace.ByName(benchmark)
	if err != nil {
		return err
	}
	g := trace.NewGenerator(prof)
	wl := core.FromGenerator(g)
	return Record(w, wl, wl.Meta(), wl.EntryPC(), n)
}

func writeInst(w *bufio.Writer, in *isa.Inst, prevPC, prevAddr *uint64) error {
	w.WriteByte(byte(in.Op))
	var flags byte
	if in.Taken {
		flags |= 1
	}
	if in.Dest != isa.RegNone {
		flags |= 2
	}
	if in.Src1 != isa.RegNone {
		flags |= 4
	}
	if in.Src2 != isa.RegNone {
		flags |= 8
	}
	w.WriteByte(flags)
	writeVarint(w, int64(in.PC)-int64(*prevPC))
	*prevPC = in.PC
	if in.Dest != isa.RegNone {
		w.WriteByte(byte(in.Dest))
	}
	if in.Src1 != isa.RegNone {
		w.WriteByte(byte(in.Src1))
	}
	if in.Src2 != isa.RegNone {
		w.WriteByte(byte(in.Src2))
	}
	if in.Op.IsMem() {
		writeVarint(w, int64(in.Addr)-int64(*prevAddr))
		*prevAddr = in.Addr
		w.WriteByte(in.Size)
	}
	if in.Op.IsBranch() {
		writeUvarint(w, in.Target)
	}
	return nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

// Reader replays a recorded trace as a core.Workload. The committed path
// is reproduced exactly; wrong-path instructions are not recorded, so the
// front end stalls on mispredictions (as after a BTB miss), making replay
// timing slightly more conservative than the original run.
//
// When the trace is exhausted the stream wraps around to the beginning,
// so callers may simulate more instructions than were recorded.
type Reader struct {
	hdr   Header
	insts []isa.Inst
	pos   int
	seq   uint64
}

// NewReader parses an entire trace from r into memory.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("tracefile: reading magic: %w", err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("tracefile: bad magic %q", got)
	}
	var hdr Header
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("tracefile: name length: %w", err)
	}
	if nameLen > 4096 {
		return nil, fmt.Errorf("tracefile: unreasonable name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("tracefile: name: %w", err)
	}
	hdr.Name = string(name)
	classByte, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("tracefile: class: %w", err)
	}
	hdr.Class = trace.Class(classByte)
	if hdr.Seed, err = binary.ReadVarint(br); err != nil {
		return nil, fmt.Errorf("tracefile: seed: %w", err)
	}
	if hdr.EntryPC, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("tracefile: entry PC: %w", err)
	}
	if hdr.InvBase, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("tracefile: invalidation base: %w", err)
	}
	if hdr.InvBytes, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("tracefile: invalidation bytes: %w", err)
	}
	if hdr.Count, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("tracefile: count: %w", err)
	}
	// The count is unchecked input: preallocate at most maxPrealloc
	// instructions and let append grow, so a header promising more than
	// the body holds ends in the truncation error below, not a giant
	// allocation.
	rd := &Reader{hdr: hdr, insts: make([]isa.Inst, 0, min(hdr.Count, maxPrealloc))}
	var prevPC, prevAddr uint64
	for i := uint64(0); i < hdr.Count; i++ {
		in, err := readInst(br, &prevPC, &prevAddr)
		if err != nil {
			return nil, fmt.Errorf("tracefile: instruction %d: %w", i, err)
		}
		in.Seq = i
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("tracefile: instruction %d: %w", i, err)
		}
		rd.insts = append(rd.insts, in)
	}
	if len(rd.insts) == 0 {
		return nil, fmt.Errorf("tracefile: empty trace")
	}
	return rd, nil
}

func readInst(br *bufio.Reader, prevPC, prevAddr *uint64) (isa.Inst, error) {
	var in isa.Inst
	opByte, err := br.ReadByte()
	if err != nil {
		return in, err
	}
	in.Op = isa.Op(opByte)
	if !in.Op.Valid() {
		return in, fmt.Errorf("invalid op %d", opByte)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return in, err
	}
	in.Taken = flags&1 != 0
	in.Dest, in.Src1, in.Src2 = isa.RegNone, isa.RegNone, isa.RegNone
	dpc, err := binary.ReadVarint(br)
	if err != nil {
		return in, err
	}
	in.PC = uint64(int64(*prevPC) + dpc)
	*prevPC = in.PC
	if flags&2 != 0 {
		b, err := br.ReadByte()
		if err != nil {
			return in, err
		}
		in.Dest = int16(b)
	}
	if flags&4 != 0 {
		b, err := br.ReadByte()
		if err != nil {
			return in, err
		}
		in.Src1 = int16(b)
	}
	if flags&8 != 0 {
		b, err := br.ReadByte()
		if err != nil {
			return in, err
		}
		in.Src2 = int16(b)
	}
	if in.Op.IsMem() {
		da, err := binary.ReadVarint(br)
		if err != nil {
			return in, err
		}
		in.Addr = uint64(int64(*prevAddr) + da)
		*prevAddr = in.Addr
		if in.Size, err = br.ReadByte(); err != nil {
			return in, err
		}
	}
	if in.Op.IsBranch() {
		if in.Target, err = binary.ReadUvarint(br); err != nil {
			return in, err
		}
	}
	return in, nil
}

// Header returns the trace metadata.
func (r *Reader) Header() Header { return r.hdr }

// Len returns the number of recorded instructions.
func (r *Reader) Len() int { return len(r.insts) }

// Next returns the next instruction, wrapping at the end of the trace.
func (r *Reader) Next() isa.Inst {
	if r.pos == len(r.insts) {
		r.pos = 0
	}
	in := r.insts[r.pos]
	r.pos++
	in.Seq = r.seq
	r.seq++
	return in
}

// WrongPath returns nil: recorded traces carry only the committed path.
func (r *Reader) WrongPath(uint64, bool, uint64) core.InstSource { return nil }

// EntryPC returns the recorded entry point.
func (r *Reader) EntryPC() uint64 { return r.hdr.EntryPC }

// Meta describes the recorded workload.
func (r *Reader) Meta() core.WorkloadMeta {
	return core.WorkloadMeta{
		Name:     r.hdr.Name + ".trace",
		Class:    r.hdr.Class,
		InvBase:  r.hdr.InvBase,
		InvBytes: r.hdr.InvBytes,
		Seed:     r.hdr.Seed,
	}
}
