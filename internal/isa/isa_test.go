package isa

import (
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
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
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("invalid op string = %q", got)
	}
}

func TestOpPredicates(t *testing.T) {
	for op := Op(0); op < Op(NumOps); op++ {
		if !op.Valid() {
			t.Errorf("%v should be valid", op)
		}
		if op.IsMem() != (op == OpLoad || op == OpStore) {
			t.Errorf("%v IsMem mismatch", op)
		}
		if op.IsLoad() != (op == OpLoad) {
			t.Errorf("%v IsLoad mismatch", op)
		}
		if op.IsStore() != (op == OpStore) {
			t.Errorf("%v IsStore mismatch", op)
		}
		if op.IsBranch() != (op == OpBranch) {
			t.Errorf("%v IsBranch mismatch", op)
		}
		if op.IsFP() != (op == OpFAlu || op == OpFMul || op == OpFDiv) {
			t.Errorf("%v IsFP mismatch", op)
		}
		if op.Latency() < 1 {
			t.Errorf("%v latency %d < 1", op, op.Latency())
		}
	}
	if Op(NumOps).Valid() {
		t.Error("out-of-range op should be invalid")
	}
}

func TestLatencyOrdering(t *testing.T) {
	if !(OpIAlu.Latency() < OpIMul.Latency() && OpIMul.Latency() < OpIDiv.Latency()) {
		t.Error("integer latencies not ordered alu < mul < div")
	}
	if !(OpFAlu.Latency() < OpFMul.Latency() && OpFMul.Latency() < OpFDiv.Latency()) {
		t.Error("FP latencies not ordered alu < mul < div")
	}
}

func TestIsFPReg(t *testing.T) {
	if IsFPReg(0) || IsFPReg(NumIntRegs-1) {
		t.Error("integer registers classified as FP")
	}
	if !IsFPReg(NumIntRegs) || !IsFPReg(NumRegs-1) {
		t.Error("FP registers not classified as FP")
	}
	if IsFPReg(NumRegs) || IsFPReg(RegNone) {
		t.Error("out-of-range register classified as FP")
	}
}

func TestValidate(t *testing.T) {
	good := Inst{Op: OpLoad, Dest: 3, Src1: 4, Src2: RegNone, Addr: 0x1000, Size: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("valid load rejected: %v", err)
	}
	cases := []struct {
		name string
		in   Inst
	}{
		{"bad op", Inst{Op: Op(99)}},
		{"bad dest", Inst{Op: OpIAlu, Dest: NumRegs}},
		{"bad src", Inst{Op: OpIAlu, Dest: 1, Src1: -7, Src2: RegNone}},
		{"bad size", Inst{Op: OpLoad, Dest: 1, Src1: 2, Src2: RegNone, Addr: 8, Size: 3}},
		{"misaligned", Inst{Op: OpLoad, Dest: 1, Src1: 2, Src2: RegNone, Addr: 0x1001, Size: 8}},
		{"store without data", Inst{Op: OpStore, Dest: RegNone, Src1: 2, Src2: RegNone, Addr: 8, Size: 8}},
	}
	for _, c := range cases {
		if err := c.in.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestHasDest(t *testing.T) {
	in := Inst{Dest: RegNone}
	if in.HasDest() {
		t.Error("RegNone dest reported as destination")
	}
	in.Dest = 5
	if !in.HasDest() {
		t.Error("register 5 not reported as destination")
	}
}

func TestStringForms(t *testing.T) {
	load := Inst{Seq: 1, Op: OpLoad, Dest: 2, Addr: 0x100, Size: 4}
	if load.String() == "" {
		t.Error("empty string for load")
	}
	br := Inst{Seq: 2, Op: OpBranch, PC: 0x40, Taken: true, Target: 0x80}
	if br.String() == "" {
		t.Error("empty string for branch")
	}
	alu := Inst{Seq: 3, Op: OpIAlu, Dest: 1, Src1: 2, Src2: 3}
	if alu.String() == "" {
		t.Error("empty string for alu")
	}
}

func TestOverlap(t *testing.T) {
	cases := []struct {
		a    uint64
		sa   uint8
		b    uint64
		sb   uint8
		want bool
	}{
		{0x100, 8, 0x100, 8, true},  // identical
		{0x100, 8, 0x104, 4, true},  // contained
		{0x100, 4, 0x104, 4, false}, // adjacent
		{0x100, 8, 0x0f8, 8, false}, // adjacent below
		{0x100, 1, 0x100, 8, true},  // byte within quad
		{0x100, 8, 0x0fc, 8, true},  // straddling
		{0x200, 4, 0x100, 4, false}, // disjoint
		{0x100, 2, 0x101, 1, true},  // byte inside half-word
	}
	for _, c := range cases {
		if got := Overlap(c.a, c.sa, c.b, c.sb); got != c.want {
			t.Errorf("Overlap(%#x/%d, %#x/%d) = %v, want %v", c.a, c.sa, c.b, c.sb, got, c.want)
		}
		// Overlap must be symmetric.
		if got := Overlap(c.b, c.sb, c.a, c.sa); got != c.want {
			t.Errorf("Overlap not symmetric for (%#x/%d, %#x/%d)", c.a, c.sa, c.b, c.sb)
		}
	}
}

func TestContains(t *testing.T) {
	if !Contains(0x100, 8, 0x104, 4) {
		t.Error("8-byte store should contain inner 4-byte load")
	}
	if Contains(0x104, 4, 0x100, 8) {
		t.Error("4-byte store cannot contain 8-byte load")
	}
	if !Contains(0x100, 4, 0x100, 4) {
		t.Error("identical accesses should contain each other")
	}
	if Contains(0x100, 4, 0x102, 4) {
		t.Error("straddling access is not contained")
	}
}

func TestQuadWord(t *testing.T) {
	if QuadWord(0) != 0 || QuadWord(7) != 0 || QuadWord(8) != 1 || QuadWord(0x100) != 0x20 {
		t.Error("QuadWord index wrong")
	}
}

func TestQuadWordBitmap(t *testing.T) {
	cases := []struct {
		addr uint64
		size uint8
		want uint8
	}{
		{0x100, 8, 0b1111}, // full quad word
		{0x100, 4, 0b0011}, // low half
		{0x104, 4, 0b1100}, // high half
		{0x100, 2, 0b0001},
		{0x102, 2, 0b0010},
		{0x106, 2, 0b1000},
		{0x100, 1, 0b0001},
		{0x107, 1, 0b1000},
		{0x101, 1, 0b0001}, // odd byte still inside granule 0
	}
	for _, c := range cases {
		if got := QuadWordBitmap(c.addr, c.size); got != c.want {
			t.Errorf("QuadWordBitmap(%#x, %d) = %04b, want %04b", c.addr, c.size, got, c.want)
		}
	}
}

// Property: overlapping accesses within the same quad word must have
// intersecting bitmaps, so the checking table's bitmap refinement never
// misses a genuine overlap (no false negatives).
func TestQuadWordBitmapSoundness(t *testing.T) {
	f := func(offA, offB uint8, szSelA, szSelB uint8) bool {
		sizes := [...]uint8{1, 2, 4, 8}
		sa := sizes[szSelA%4]
		sb := sizes[szSelB%4]
		// Align offsets within one quad word.
		a := uint64(offA) % 8
		b := uint64(offB) % 8
		a -= a % uint64(sa)
		b -= b % uint64(sb)
		base := uint64(0x1000)
		if Overlap(base+a, sa, base+b, sb) {
			return QuadWordBitmap(base+a, sa)&QuadWordBitmap(base+b, sb) != 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: Overlap is symmetric for arbitrary aligned accesses.
func TestOverlapSymmetryProperty(t *testing.T) {
	f := func(a, b uint32, szSelA, szSelB uint8) bool {
		sizes := [...]uint8{1, 2, 4, 8}
		sa := sizes[szSelA%4]
		sb := sizes[szSelB%4]
		aa := uint64(a) - uint64(a)%uint64(sa)
		bb := uint64(b) - uint64(b)%uint64(sb)
		return Overlap(aa, sa, bb, sb) == Overlap(bb, sb, aa, sa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: Contains implies Overlap.
func TestContainsImpliesOverlap(t *testing.T) {
	f := func(a, b uint32, szSelA, szSelB uint8) bool {
		sizes := [...]uint8{1, 2, 4, 8}
		sa := sizes[szSelA%4]
		sb := sizes[szSelB%4]
		aa := uint64(a) - uint64(a)%uint64(sa)
		bb := uint64(b) - uint64(b)%uint64(sb)
		if Contains(aa, sa, bb, sb) {
			return Overlap(aa, sa, bb, sb)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
