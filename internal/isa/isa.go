// Package isa defines the micro-ISA used by the simulator: a small
// RISC-like instruction set with integer and floating-point operations,
// loads, stores, and branches. Instructions are abstract — the simulator
// is trace-driven, so an instruction carries its dynamic outcome (effective
// address, branch direction and target) rather than being interpreted.
package isa

import "fmt"

// Op identifies an operation class. Classes correspond to functional-unit
// types, not individual opcodes: the timing model only needs the class.
type Op uint8

// Operation classes.
const (
	OpNop Op = iota
	OpIAlu
	OpIMul
	OpIDiv
	OpFAlu
	OpFMul
	OpFDiv
	OpLoad
	OpStore
	OpBranch
	numOps
)

// NumOps is the number of distinct operation classes.
const NumOps = int(numOps)

var opNames = [...]string{
	OpNop:    "nop",
	OpIAlu:   "ialu",
	OpIMul:   "imul",
	OpIDiv:   "idiv",
	OpFAlu:   "falu",
	OpFMul:   "fmul",
	OpFDiv:   "fdiv",
	OpLoad:   "load",
	OpStore:  "store",
	OpBranch: "branch",
}

// String returns the mnemonic for the operation class.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation class.
func (o Op) Valid() bool { return o < numOps }

// IsMem reports whether the operation accesses memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// IsLoad reports whether the operation is a load.
func (o Op) IsLoad() bool { return o == OpLoad }

// IsStore reports whether the operation is a store.
func (o Op) IsStore() bool { return o == OpStore }

// IsBranch reports whether the operation is a conditional branch.
func (o Op) IsBranch() bool { return o == OpBranch }

// IsFP reports whether the operation executes on the floating-point cluster.
func (o Op) IsFP() bool { return o == OpFAlu || o == OpFMul || o == OpFDiv }

// Latency returns the default execution latency in cycles for the
// operation class, excluding any memory-hierarchy latency for loads.
func (o Op) Latency() int {
	switch o {
	case OpIAlu, OpBranch, OpNop, OpStore:
		return 1
	case OpIMul:
		return 3
	case OpIDiv:
		return 12
	case OpFAlu:
		return 2
	case OpFMul:
		return 4
	case OpFDiv:
		return 12
	case OpLoad:
		return 1 // address generation; cache latency is added by the core
	default:
		return 1
	}
}

// Register-file layout. Architectural registers 0..NumIntRegs-1 are integer,
// NumIntRegs..NumRegs-1 are floating point. Register -1 means "none".
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs

	// RegNone marks an absent operand or destination.
	RegNone = int16(-1)
)

// IsFPReg reports whether architectural register r belongs to the FP file.
func IsFPReg(r int16) bool { return r >= NumIntRegs && r < NumRegs }

// Inst is one dynamic instruction. Because the simulator is trace-driven,
// the instruction records its own outcome: the effective address and access
// size for memory operations, and the resolved direction and target for
// branches. Seq is the dynamic program-order sequence number and doubles as
// the instruction's age (the paper's "ROB ID with some simple extension").
type Inst struct {
	Seq    uint64
	PC     uint64
	Op     Op
	Dest   int16 // architectural destination register, RegNone if none
	Src1   int16 // first source (address operand for memory ops)
	Src2   int16 // second source (data operand for stores)
	Addr   uint64
	Size   uint8 // access size in bytes: 1, 2, 4, or 8
	Taken  bool
	Target uint64
}

// HasDest reports whether the instruction writes a register.
func (in *Inst) HasDest() bool { return in.Dest != RegNone }

// Validate checks structural invariants of the instruction and returns a
// descriptive error for the first violation found.
func (in *Inst) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid op %d", uint8(in.Op))
	}
	if in.Dest != RegNone && (in.Dest < 0 || in.Dest >= NumRegs) {
		return fmt.Errorf("isa: dest register %d out of range", in.Dest)
	}
	for _, src := range [...]int16{in.Src1, in.Src2} {
		if src != RegNone && (src < 0 || src >= NumRegs) {
			return fmt.Errorf("isa: source register %d out of range", src)
		}
	}
	if in.Op.IsMem() {
		switch in.Size {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("isa: memory access size %d invalid", in.Size)
		}
		if in.Addr%uint64(in.Size) != 0 {
			return fmt.Errorf("isa: address %#x misaligned for size %d", in.Addr, in.Size)
		}
	}
	if in.Op.IsStore() && in.Src2 == RegNone {
		return fmt.Errorf("isa: store without data operand")
	}
	return nil
}

// String renders a compact human-readable form of the instruction.
func (in *Inst) String() string {
	switch {
	case in.Op.IsMem():
		return fmt.Sprintf("%d: %s r%d, [%#x]/%d", in.Seq, in.Op, in.Dest, in.Addr, in.Size)
	case in.Op.IsBranch():
		dir := "nt"
		if in.Taken {
			dir = "t"
		}
		return fmt.Sprintf("%d: %s pc=%#x %s -> %#x", in.Seq, in.Op, in.PC, dir, in.Target)
	default:
		return fmt.Sprintf("%d: %s r%d <- r%d, r%d", in.Seq, in.Op, in.Dest, in.Src1, in.Src2)
	}
}

// Overlap reports whether two memory accesses [addrA, addrA+sizeA) and
// [addrB, addrB+sizeB) touch any common byte.
func Overlap(addrA uint64, sizeA uint8, addrB uint64, sizeB uint8) bool {
	return addrA < addrB+uint64(sizeB) && addrB < addrA+uint64(sizeA)
}

// Contains reports whether access A fully covers access B, i.e. a store A
// can forward all bytes of load B.
func Contains(addrA uint64, sizeA uint8, addrB uint64, sizeB uint8) bool {
	return addrA <= addrB && addrB+uint64(sizeB) <= addrA+uint64(sizeA)
}

// QuadWord returns the quad-word (8-byte granule) index of an address.
// The paper's checking table and the primary YLA set are quad-word
// interleaved.
func QuadWord(addr uint64) uint64 { return addr >> 3 }

// QuadWordBitmap returns the paper's 4-bit sub-quad-word bitmap for an
// access: the checking table stores one bit per 2-byte granule so that
// narrow accesses to the same quad word do not falsely conflict.
func QuadWordBitmap(addr uint64, size uint8) uint8 {
	first := (addr >> 1) & 3
	// Number of 2-byte granules covered, rounding partial granules up.
	n := (uint64(size) + (addr & 1) + 1) / 2
	if n == 0 {
		n = 1
	}
	var bm uint8
	for i := uint64(0); i < n && first+i < 4; i++ {
		bm |= 1 << (first + i)
	}
	return bm
}
