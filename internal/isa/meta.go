package isa

// Meta is the fully pre-derived operand/class view of one decoded
// instruction. The hot simulator loops (fetch, rename, the functional
// emulator's step) each need the same handful of facts — which registers
// the instruction reads and writes, its scheduling class, how control
// transfers classify — and deriving them from the instruction word costs
// several opTable lookups and format switches per instruction per stage.
// Precomputing them once per static instruction (see program.Meta) turns
// every per-dynamic-instruction derivation into a single indexed load.
type Meta struct {
	// Architectural operands as the functional model reads them:
	// RegNone marks an absent operand. Dest includes hardwired zero
	// destinations (writes to them are discarded by WriteReg).
	SrcA, SrcB, Dest Reg
	// Rename view of the same operands: hardwired zero registers are
	// normalized to RegNone (they are never renamed and read as zero).
	// A syscall's rename sources are the registers its service code
	// reads (SyscallSrcs), so the pipeline renames it like any other
	// instruction.
	RenSrcA, RenSrcB, RenDest Reg

	Class Class
	Ctl   CtlKind
	Call  bool      // control transfer pushes a return address (jsr/jsrr)
	Issue IssueKind // functional-unit kind the out-of-order core issues to
	Lat   uint8     // execution latency in cycles (Op.Latency)

	HasImm    bool  // second ALU operand is the immediate (ImmOperand)
	MemSigned bool  // load sign-extends
	MemBytes  uint8 // memory access size (0 for non-memory ops)

	// WinSlots locates RenSrcA, RenSrcB and RenDest (in that order) in
	// the logical register space of a machine with register windows;
	// on one without, a register's slot is its number (SlotOf). Entries
	// of absent operands are zero.
	WinSlots [3]RegSlot
	// Lookups is the number of distinct registers among the rename
	// operands: a register named twice costs one rename-table lookup.
	Lookups uint8

	// Imm is Inst.ImmOperand narrowed to 32 bits, which loses nothing:
	// zero-extended immediates are 14 bits wide and the rest are
	// sign-extended from 32. It keeps the descriptor at 24 bytes.
	Imm int32
}

// ImmOperand is the immediate second ALU operand (see HasImm).
func (m *Meta) ImmOperand() uint64 { return uint64(int64(m.Imm)) }

// IssueKind is the class of functional unit (or data-cache port) an
// instruction needs at issue.
type IssueKind uint8

const (
	IssueInt    IssueKind = iota // integer ALU: also control, syscalls and invalid words
	IssueMulDiv                  // integer multiply/divide unit
	IssueFP                      // floating-point unit
	IssueLoad                    // data-cache read port
	IssueStore                   // address and data capture; writes at commit
)

// RegSlot is where a renamed register lives in a thread's logical
// register space: slot Slot() of the current window when Win(), else of
// the globals (on a machine without windows every register is a global
// and its slot is its register number). VCA machines address the slot at
// byte offset Off() from the window or global base pointer; conventional
// ones use the slot as the logical register index. The window flag is
// the top bit, so a slot takes one byte.
type RegSlot uint8

const regSlotWin RegSlot = 0x80

// Win reports whether the slot is in the current register window.
func (s RegSlot) Win() bool { return s&regSlotWin != 0 }

// Slot is the slot's index within the window or the globals.
func (s RegSlot) Slot() int { return int(s &^ regSlotWin) }

// Off is the slot's byte offset from its base pointer.
func (s RegSlot) Off() uint64 { return 8 * uint64(s&^regSlotWin) }

// SlotOf locates r in the logical register space of a machine with
// (windowed) or without register windows.
func SlotOf(r Reg, windowed bool) RegSlot {
	switch {
	case !windowed:
		return RegSlot(r)
	case r.IsWindowed():
		return regSlotWin | RegSlot(r.WindowSlot())
	}
	return RegSlot(r.GlobalSlot())
}

// SyscallSrcs returns the registers a syscall with the given service
// code reads (RegNone for an unused operand).
func SyscallSrcs(code int32) (a, b Reg) {
	switch code {
	case SysExit, SysPutChar, SysPutInt:
		return RegA0, RegNone
	case SysPutFloat:
		return RegFA0, RegNone
	case SysPutStr:
		return RegA0, RegA1
	}
	return RegNone, RegNone
}

// CtlKind classifies control transfers the way the fetch stage predicts
// them; CtlNone marks non-control instructions.
type CtlKind uint8

const (
	CtlNone     CtlKind = iota
	CtlCond             // conditional branch
	CtlRet              // return (predicted via the RAS)
	CtlIndirect         // register-indirect jump or call (BTB-predicted)
	CtlDirect           // direct jump or call (statically-known target)
)

// MetaOf derives the metadata for one instruction. It is pure table
// work — callers should cache the result per static instruction rather
// than calling it per dynamic one.
func MetaOf(i Inst) Meta {
	m := Meta{
		SrcA:  i.SrcA(),
		SrcB:  i.SrcB(),
		Dest:  i.Dest(),
		Class: i.Op.OpClass(),
	}
	m.RenSrcA, m.RenSrcB, m.RenDest = normReg(m.SrcA), normReg(m.SrcB), i.DestRenamed()
	m.Lat = uint8(i.Op.Latency())
	switch m.Class {
	case ClassIntMul, ClassIntDiv:
		m.Issue = IssueMulDiv
	case ClassFPALU, ClassFPMul, ClassFPDiv:
		m.Issue = IssueFP
	case ClassLoad:
		m.Issue = IssueLoad
	case ClassStore:
		m.Issue = IssueStore
	case ClassSyscall:
		m.RenSrcA, m.RenSrcB = SyscallSrcs(i.Imm)
	}
	switch m.Class {
	case ClassBranch:
		m.Ctl = CtlCond
	case ClassRet:
		m.Ctl = CtlRet
	case ClassJump:
		if i.Op == OpJmpR {
			m.Ctl = CtlIndirect
		} else {
			m.Ctl = CtlDirect
		}
	case ClassCall:
		m.Call = true
		if i.Op == OpJsrR {
			m.Ctl = CtlIndirect
		} else {
			m.Ctl = CtlDirect
		}
	}
	if i.HasImmOperand() {
		m.HasImm = true
		m.Imm = int32(i.ImmOperand())
	}
	m.MemBytes = uint8(i.Op.MemBytes())
	m.MemSigned = i.Op.MemSigned()

	for k, r := range [3]Reg{m.RenSrcA, m.RenSrcB, m.RenDest} {
		if r != RegNone {
			m.WinSlots[k] = SlotOf(r, true)
		}
	}
	hasA, hasB, hasD := m.RenSrcA != RegNone, m.RenSrcB != RegNone, m.RenDest != RegNone
	bRepeats := hasB && m.RenSrcB == m.RenSrcA
	dRepeats := hasD && (m.RenDest == m.RenSrcA || m.RenDest == m.RenSrcB)
	for _, distinct := range [3]bool{hasA, hasB && !bRepeats, hasD && !dRepeats} {
		if distinct {
			m.Lookups++
		}
	}
	return m
}

// normReg maps hardwired zero registers to RegNone (the rename view).
func normReg(r Reg) Reg {
	if r == RegNone || r.IsZero() {
		return RegNone
	}
	return r
}
