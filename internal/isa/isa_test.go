package isa

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRegClasses(t *testing.T) {
	if !ZeroInt.IsZero() || !ZeroFP.IsZero() {
		t.Fatal("zero registers not recognized")
	}
	if ZeroInt.IsWindowed() || ZeroFP.IsWindowed() {
		t.Error("zero registers must be global")
	}
	for i := 0; i < WindowedPerFile; i++ {
		if !IntReg(i).IsWindowed() || !FPReg(i).IsWindowed() {
			t.Errorf("r%d/f%d should be windowed", i, i)
		}
	}
	for i := WindowedPerFile; i < NumIntRegs; i++ {
		if IntReg(i).IsWindowed() || FPReg(i).IsWindowed() {
			t.Errorf("r%d/f%d should be global", i, i)
		}
	}
	if RegSP.IsWindowed() || RegRA.IsWindowed() || RegA0.IsWindowed() {
		t.Error("ABI cross-call registers must be global")
	}
}

func TestWindowSlotsUniqueAndComplete(t *testing.T) {
	seenW := map[int]Reg{}
	seenG := map[int]Reg{}
	for r := Reg(0); r < NumArchRegs; r++ {
		if r.IsWindowed() {
			s := r.WindowSlot()
			if s < 0 || s >= WindowSlots {
				t.Fatalf("window slot %d of %v out of range", s, r)
			}
			if prev, dup := seenW[s]; dup {
				t.Fatalf("window slot %d assigned to both %v and %v", s, prev, r)
			}
			seenW[s] = r
		} else {
			s := r.GlobalSlot()
			if s < 0 || s >= GlobalSlots {
				t.Fatalf("global slot %d of %v out of range", s, r)
			}
			if prev, dup := seenG[s]; dup {
				t.Fatalf("global slot %d assigned to both %v and %v", s, prev, r)
			}
			seenG[s] = r
		}
	}
	if len(seenW) != WindowSlots {
		t.Errorf("got %d windowed slots, want %d", len(seenW), WindowSlots)
	}
	if len(seenG) != GlobalSlots {
		t.Errorf("got %d global slots, want %d", len(seenG), GlobalSlots)
	}
}

func TestRegNames(t *testing.T) {
	cases := map[string]Reg{
		"sp": RegSP, "ra": RegRA, "zero": ZeroInt, "r31": ZeroInt,
		"a0": RegA0, "v0": RegV0, "s0": 0, "r5": 5,
		"fzero": ZeroFP, "f0": FPReg(0), "fs3": FPReg(3), "fa0": RegFA0,
	}
	for name, want := range cases {
		got, ok := RegByName(name)
		if !ok || got != want {
			t.Errorf("RegByName(%q) = %v,%v; want %v", name, got, ok, want)
		}
	}
	if _, ok := RegByName("bogus"); ok {
		t.Error("RegByName accepted bogus name")
	}
	for r := Reg(0); r < NumArchRegs; r++ {
		back, ok := RegByName(r.String())
		if !ok || back != r {
			t.Errorf("round trip of %v via name %q failed", r, r.String())
		}
	}
}

func TestEncodeDecodeRoundTripAllFormats(t *testing.T) {
	insts := []Inst{
		{Op: OpAdd, A: 1, B: 2, C: 3},
		{Op: OpFMul, A: 30, B: 29, C: 28},
		{Op: OpAddI, A: 29, B: 29, Imm: -8},
		{Op: OpLdQ, A: 29, B: 4, Imm: Imm14Max},
		{Op: OpStB, A: 16, B: 17, Imm: Imm14Min},
		{Op: OpBne, A: 22, Imm: -300},
		{Op: OpJmp, Imm: Disp24Min},
		{Op: OpJsr, Imm: Disp24Max},
		{Op: OpRet, A: 26},
		{Op: OpJsrR, A: 24},
		{Op: OpSyscall, Imm: SysPutInt},
	}
	for _, in := range insts {
		w, err := in.Encode()
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		out := Decode(w)
		if out != in {
			t.Errorf("round trip %+v -> %+v", in, out)
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	if _, err := EncodeI(OpAddI, 0, 0, Imm14Max+1); err == nil {
		t.Error("EncodeI accepted oversized immediate")
	}
	if _, err := EncodeBr(OpBeq, 0, Disp19Min-1); err == nil {
		t.Error("EncodeBr accepted oversized displacement")
	}
	if _, err := EncodeJ(OpJmp, Disp24Max+1); err == nil {
		t.Error("EncodeJ accepted oversized displacement")
	}
}

// Property: every encodable instruction round-trips through Decode.
func TestQuickEncodeDecode(t *testing.T) {
	f := func(opRaw uint8, a, b, c uint8, imm int32) bool {
		op := Op(opRaw % uint8(numOps))
		if op == OpInvalid {
			return true
		}
		in := Inst{Op: op, A: a & 31, B: b & 31, C: c & 31}
		switch op.Fmt() {
		case FmtR:
			// all fields used as built
		case FmtI:
			in.C = 0
			in.Imm = imm%(Imm14Max+1) - 0 // in range after mod
			if in.Imm < Imm14Min {
				in.Imm = Imm14Min
			}
		case FmtBr:
			in.B, in.C = 0, 0
			in.Imm = imm % (Disp19Max + 1)
		case FmtJ:
			in.A, in.B, in.C = 0, 0, 0
			in.Imm = imm % (Disp24Max + 1)
		case FmtJR:
			in.B, in.C = 0, 0
		case FmtSys:
			in.A, in.B, in.C = 0, 0, 0
			in.Imm = int32(uint16(imm))
		}
		w, err := in.Encode()
		if err != nil {
			return false
		}
		return Decode(w) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func u64(x int64) uint64 { return uint64(x) }

func TestEvalALUInteger(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{OpAdd, 2, 3, 5},
		{OpSub, 2, 3, ^uint64(0)},
		{OpMul, 7, 6, 42},
		{OpDiv, u64(-7), 2, u64(-3)},
		{OpDiv, 5, 0, 0},
		{OpDiv, u64(math.MinInt64), u64(-1), u64(math.MinInt64)},
		{OpRem, 7, 3, 1},
		{OpRem, 7, 0, 7},
		{OpRem, u64(math.MinInt64), u64(-1), 0},
		{OpAnd, 0xF0, 0x3C, 0x30},
		{OpOr, 0xF0, 0x0F, 0xFF},
		{OpXor, 0xFF, 0x0F, 0xF0},
		{OpSll, 1, 63, 1 << 63},
		{OpSll, 1, 64, 1}, // shift counts mod 64
		{OpSrl, 1 << 63, 63, 1},
		{OpSra, 1 << 63, 63, ^uint64(0)},
		{OpCmpEq, 4, 4, 1},
		{OpCmpEq, 4, 5, 0},
		{OpCmpLt, u64(-1), 0, 1},
		{OpCmpULt, u64(-1), 0, 0},
		{OpCmpLe, 3, 3, 1},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b); got != c.want {
			t.Errorf("%v(%#x,%#x) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalALUFloat(t *testing.T) {
	b := math.Float64bits
	if got := EvalALU(OpFAdd, b(1.5), b(2.25)); math.Float64frombits(got) != 3.75 {
		t.Errorf("fadd = %v", math.Float64frombits(got))
	}
	if got := EvalALU(OpFDiv, b(1), b(4)); math.Float64frombits(got) != 0.25 {
		t.Errorf("fdiv = %v", math.Float64frombits(got))
	}
	if got := EvalALU(OpFSqrt, b(9), 0); math.Float64frombits(got) != 3 {
		t.Errorf("fsqrt = %v", math.Float64frombits(got))
	}
	if got := EvalALU(OpFCmpLt, b(-1), b(1)); got != 1 {
		t.Errorf("fcmplt = %d", got)
	}
	if got := EvalALU(OpCvtIF, u64(-3), 0); math.Float64frombits(got) != -3 {
		t.Errorf("cvtif = %v", math.Float64frombits(got))
	}
	if got := EvalALU(OpCvtFI, b(-3.9), 0); int64(got) != -3 {
		t.Errorf("cvtfi = %d (want trunc toward zero)", int64(got))
	}
}

func TestBranchSemantics(t *testing.T) {
	neg := u64(-5)
	cases := []struct {
		op    Op
		a     uint64
		taken bool
	}{
		{OpBeq, 0, true}, {OpBeq, 1, false},
		{OpBne, 0, false}, {OpBne, neg, true},
		{OpBlt, neg, true}, {OpBlt, 0, false},
		{OpBle, 0, true}, {OpBle, 1, false},
		{OpBgt, 1, true}, {OpBgt, 0, false},
		{OpBge, 0, true}, {OpBge, neg, false},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.a); got != c.taken {
			t.Errorf("%v(%d) taken = %v, want %v", c.op, int64(c.a), got, c.taken)
		}
	}
}

func TestControlTargets(t *testing.T) {
	i := Inst{Op: OpBeq, A: 0, Imm: -2}
	if tgt, ok := i.ControlTarget(0x1000); !ok || tgt != 0x1000+4-8 {
		t.Errorf("branch target = %#x,%v", tgt, ok)
	}
	j := Inst{Op: OpJsr, Imm: 10}
	if tgt, ok := j.ControlTarget(0x2000); !ok || tgt != 0x2000+4+40 {
		t.Errorf("jsr target = %#x,%v", tgt, ok)
	}
	r := Inst{Op: OpRet, A: uint8(RegRA)}
	if _, ok := r.ControlTarget(0); ok {
		t.Error("ret should have no static target")
	}
}

func TestOperandExtraction(t *testing.T) {
	// stq t0, 16(sp): base sp, value t0, no dest.
	st := Inst{Op: OpStQ, A: uint8(RegSP), B: uint8(RegT0), Imm: 16}
	if st.SrcA() != RegSP || st.SrcB() != RegT0 || st.Dest() != RegNone {
		t.Errorf("store operands: srcA=%v srcB=%v dest=%v", st.SrcA(), st.SrcB(), st.Dest())
	}
	// ldf fs0, 0(a0): dest is FP.
	ld := Inst{Op: OpLdF, A: uint8(RegA0), B: 0}
	if ld.Dest() != FPReg(0) || ld.SrcA() != RegA0 {
		t.Errorf("ldf operands: dest=%v srcA=%v", ld.Dest(), ld.SrcA())
	}
	// jsr writes ra.
	call := Inst{Op: OpJsr, Imm: 4}
	if call.Dest() != RegRA {
		t.Errorf("jsr dest = %v", call.Dest())
	}
	// fcmplt writes an integer register from FP sources.
	fc := Inst{Op: OpFCmpLt, A: 1, B: 2, C: uint8(RegT1)}
	if fc.Dest() != RegT1 || !fc.SrcA().IsFP() || !fc.SrcB().IsFP() {
		t.Errorf("fcmp operands: dest=%v srcA=%v srcB=%v", fc.Dest(), fc.SrcA(), fc.SrcB())
	}
	// Writes to zero registers are not renamed.
	z := Inst{Op: OpAddI, A: uint8(ZeroInt), B: uint8(ZeroInt), Imm: 0}
	if z.DestRenamed() != RegNone {
		t.Error("write to zero register should not be renamed")
	}
	if z.Dest() != ZeroInt {
		t.Error("architectural dest of nop should still be r31")
	}
}

func TestWindowDelta(t *testing.T) {
	if (Inst{Op: OpJsr}).WindowDelta() != -WindowBytes {
		t.Error("jsr must push a window")
	}
	if (Inst{Op: OpJsrR}).WindowDelta() != -WindowBytes {
		t.Error("jsrr must push a window")
	}
	if (Inst{Op: OpRet}).WindowDelta() != WindowBytes {
		t.Error("ret must pop a window")
	}
	if (Inst{Op: OpJmp}).WindowDelta() != 0 || (Inst{Op: OpAdd}).WindowDelta() != 0 {
		t.Error("non-call/ret must not move the window")
	}
}

func TestImmOperandExtension(t *testing.T) {
	// ori zero-extends, addi sign-extends.
	or := Inst{Op: OpOrI, Imm: -1 & Imm14Mask} // all 14 bits set
	or.Imm = signExtend(uint32(or.Imm), 14)
	if or.ImmOperand() != Imm14Mask {
		t.Errorf("ori imm = %#x, want %#x", or.ImmOperand(), Imm14Mask)
	}
	ad := Inst{Op: OpAddI, Imm: -1}
	if int64(ad.ImmOperand()) != -1 {
		t.Errorf("addi imm = %d, want -1", int64(ad.ImmOperand()))
	}
}

func TestOpMetadata(t *testing.T) {
	if OpLdQ.MemBytes() != 8 || OpLdL.MemBytes() != 4 || OpStB.MemBytes() != 1 {
		t.Error("wrong memory access sizes")
	}
	if !OpLdL.MemSigned() || OpLdBU.MemSigned() {
		t.Error("wrong load extension flags")
	}
	if !OpLdF.IsMem() || OpFAdd.IsMem() {
		t.Error("wrong memory classification")
	}
	for op := Op(1); op < numOps; op++ {
		if op.Latency() < 1 {
			t.Errorf("%v has non-positive latency", op)
		}
		if op.String() == "" || op.String() == "op?" {
			t.Errorf("op %d has no name", op)
		}
		back, ok := OpByName(op.String())
		if !ok || back != op {
			t.Errorf("mnemonic round trip failed for %v", op)
		}
	}
}

// TestMetaDescriptors checks the pipeline descriptors MetaOf derives for
// every opcode over every register field value and a spread of
// immediates: the narrowed immediate reads back as ImmOperand, the issue
// kind follows the class, the latency is the opcode's, a syscall's rename
// sources are SyscallSrcs of its code, each operand's window-view slot is
// SlotOf its register, and the lookup count and repeat pattern match a
// direct comparison of the rename operands.
func TestMetaDescriptors(t *testing.T) {
	issueOf := map[Class]IssueKind{
		ClassIntMul: IssueMulDiv, ClassIntDiv: IssueMulDiv,
		ClassFPALU: IssueFP, ClassFPMul: IssueFP, ClassFPDiv: IssueFP,
		ClassLoad: IssueLoad, ClassStore: IssueStore,
	}
	for op := Op(0); op < numOps; op++ {
		for f := uint8(0); f < 32; f++ {
			imms := [...]int32{0, 1, -1, 5, 1<<13 - 1, -1 << 13, 1<<14 - 1, 1<<23 - 1, -1 << 23, 1<<31 - 1, -1 << 31}
			i := Inst{Op: op, A: f, B: (f + 7) % 32, C: f, Imm: imms[int(f)%len(imms)]}
			m := MetaOf(i)
			if m.HasImm != i.HasImmOperand() || m.HasImm && m.ImmOperand() != i.ImmOperand() {
				t.Errorf("%v imm %d: HasImm %v ImmOperand %#x, want %v %#x", op, i.Imm, m.HasImm, m.ImmOperand(), i.HasImmOperand(), i.ImmOperand())
			}
			if want := issueOf[m.Class]; m.Issue != want {
				t.Errorf("%v: issue kind %d, want %d", op, m.Issue, want)
			}
			if int(m.Lat) != op.Latency() {
				t.Errorf("%v: latency %d, want %d", op, m.Lat, op.Latency())
			}
			if m.Class == ClassSyscall {
				if a, b := SyscallSrcs(i.Imm); m.RenSrcA != a || m.RenSrcB != b || m.RenDest != RegNone {
					t.Errorf("syscall %d: rename operands %v %v -> %v", i.Imm, m.RenSrcA, m.RenSrcB, m.RenDest)
				}
			}
			ops := [3]Reg{m.RenSrcA, m.RenSrcB, m.RenDest}
			var distinct []Reg
			for k, r := range ops {
				if r == RegNone {
					continue
				}
				if got := m.WinSlots[k]; got != SlotOf(r, true) {
					t.Errorf("%v operand %d (%v): window-view slot %#x, want %#x", op, k, r, got, SlotOf(r, true))
				}
				if !slices.Contains(distinct, r) {
					distinct = append(distinct, r)
				}
			}
			if int(m.Lookups) != len(distinct) {
				t.Errorf("%v %v: %d lookups, want %d", op, ops, m.Lookups, len(distinct))
			}
		}
	}
}

// TestMetaSize holds the descriptor at 24 bytes. A program keeps one per
// static instruction, and a 40-byte version grew table1-core's peak
// resident memory by 0.5 MB.
func TestMetaSize(t *testing.T) {
	if got := unsafe.Sizeof(Meta{}); got != 24 {
		t.Errorf("isa.Meta is %d bytes, want 24: see DESIGN.md §8 \"Per-static-instruction descriptors\"", got)
	}
}

// TestSlotOf checks the two register-space views: a machine without
// windows names every register by its number, a windowed one splits them
// into distinct window and global slots at distinct byte offsets.
func TestSlotOf(t *testing.T) {
	offs := map[[2]uint64]Reg{}
	for r := Reg(0); r < NumArchRegs; r++ {
		if s := SlotOf(r, false); s.Win() || s.Slot() != int(r) || s.Off() != 8*uint64(r) {
			t.Errorf("%v flat: slot %#x", r, s)
		}
		s := SlotOf(r, true)
		if s.Win() != r.IsWindowed() {
			t.Errorf("%v windowed: Win %v", r, s.Win())
		}
		win := uint64(0)
		if s.Win() {
			win = 1
		}
		key := [2]uint64{win, s.Off()}
		if q, dup := offs[key]; dup {
			t.Errorf("%v and %v share windowed slot %#x", q, r, s)
		}
		offs[key] = r
	}
}
