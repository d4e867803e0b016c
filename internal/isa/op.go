package isa

// Op is an opcode. The zero value OpInvalid decodes from any word whose
// opcode byte is not assigned.
type Op uint8

// Format describes how an instruction word's operand bits are laid out.
type Format uint8

const (
	FmtR   Format = iota // op | A(5) | B(5) | C(5): C := A op B
	FmtI                 // op | A(5) | B(5) | imm14: B := A op imm (loads: B := mem[A+imm]; stores: mem[A+imm] := B)
	FmtBr                // op | A(5) | disp19: conditional branch on A versus zero
	FmtJ                 // op | disp24: pc-relative jump or call
	FmtJR                // op | A(5): register-indirect jump, call, or return
	FmtSys               // op | code16
)

// Class is the broad functional class the pipeline schedules by.
type Class uint8

const (
	ClassInvalid Class = iota
	ClassIntALU        // single-cycle integer ops
	ClassIntMul
	ClassIntDiv
	ClassFPALU // add/sub/cmp/cvt/mov
	ClassFPMul
	ClassFPDiv // div and sqrt
	ClassLoad
	ClassStore
	ClassBranch // conditional branches
	ClassJump   // unconditional direct jumps
	ClassCall   // direct and indirect calls (window push when windowed)
	ClassRet    // returns (window pop when windowed)
	ClassSyscall
)

// Opcodes. The numeric values are the opcode byte in the encoding and are
// stable: programs assembled by internal/asm embed them.
const (
	OpInvalid Op = iota

	// Integer register-register.
	OpAdd
	OpSub
	OpMul
	OpDiv // signed divide; divide by zero yields 0 (checked by compilers)
	OpRem // signed remainder; x rem 0 yields x
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpCmpEq
	OpCmpLt  // signed
	OpCmpLe  // signed
	OpCmpULt // unsigned

	// Integer register-immediate (imm14, sign-extended except logical ops,
	// which zero-extend so the assembler can splice 14-bit chunks).
	OpAddI
	OpAndI
	OpOrI
	OpXorI
	OpSllI
	OpSrlI
	OpSraI
	OpCmpEqI
	OpCmpLtI
	OpCmpLeI
	OpCmpULtI

	// Memory. Loads: B := mem[A+imm]. Stores: mem[A+imm] := B.
	OpLdQ  // 64-bit load
	OpLdL  // 32-bit load, sign-extended
	OpLdBU // 8-bit load, zero-extended
	OpStQ
	OpStL
	OpStB
	OpLdF // 64-bit FP load (B names an FP register)
	OpStF

	// Control. Conditional branches compare register A against zero.
	OpBeq
	OpBne
	OpBlt
	OpBle
	OpBgt
	OpBge
	OpJmp  // pc-relative unconditional
	OpJmpR // register-indirect unconditional (computed goto)
	OpJsr  // pc-relative call; writes ra; rotates window when windowed
	OpJsrR // register-indirect call
	OpRet  // register-indirect return via A (normally ra)

	// Floating point. Register fields name the FP file except where noted.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFSqrt  // C := sqrt(A)
	OpFMov   // C := A
	OpFCmpEq // C is an *integer* register: 1/0
	OpFCmpLt
	OpFCmpLe
	OpCvtIF // C(fp) := float64(int64(A(int)))
	OpCvtFI // C(int) := int64(trunc(A(fp)))

	OpSyscall

	numOps
)

// NumOps is the number of defined opcodes (exported for table-driven tests).
const NumOps = int(numOps)

// Syscall codes (the imm16 field of OpSyscall).
const (
	SysExit     = 0 // a0 = exit status
	SysPutChar  = 1 // a0 = byte
	SysPutInt   = 2 // a0 = signed integer, printed in decimal
	SysPutFloat = 3 // fa0 = float64, printed with %g
	SysPutStr   = 4 // a0 = address, a1 = length
)

type opInfo struct {
	name  string
	fmt   Format
	class Class
	// Operand register classes. srcA/srcB/dst are true when the
	// corresponding field names a register the instruction reads/writes;
	// the *FP flags say which file the field indexes.
	srcA, srcAFP bool
	srcB, srcBFP bool
	dst, dstFP   bool
	lat          int // execution latency in cycles (memory adds cache time)
}

var opTable = [numOps]opInfo{
	OpInvalid: {name: "invalid", fmt: FmtSys, class: ClassInvalid, lat: 1},

	OpAdd:    {name: "add", fmt: FmtR, class: ClassIntALU, srcA: true, srcB: true, dst: true, lat: 1},
	OpSub:    {name: "sub", fmt: FmtR, class: ClassIntALU, srcA: true, srcB: true, dst: true, lat: 1},
	OpMul:    {name: "mul", fmt: FmtR, class: ClassIntMul, srcA: true, srcB: true, dst: true, lat: 3},
	OpDiv:    {name: "div", fmt: FmtR, class: ClassIntDiv, srcA: true, srcB: true, dst: true, lat: 20},
	OpRem:    {name: "rem", fmt: FmtR, class: ClassIntDiv, srcA: true, srcB: true, dst: true, lat: 20},
	OpAnd:    {name: "and", fmt: FmtR, class: ClassIntALU, srcA: true, srcB: true, dst: true, lat: 1},
	OpOr:     {name: "or", fmt: FmtR, class: ClassIntALU, srcA: true, srcB: true, dst: true, lat: 1},
	OpXor:    {name: "xor", fmt: FmtR, class: ClassIntALU, srcA: true, srcB: true, dst: true, lat: 1},
	OpSll:    {name: "sll", fmt: FmtR, class: ClassIntALU, srcA: true, srcB: true, dst: true, lat: 1},
	OpSrl:    {name: "srl", fmt: FmtR, class: ClassIntALU, srcA: true, srcB: true, dst: true, lat: 1},
	OpSra:    {name: "sra", fmt: FmtR, class: ClassIntALU, srcA: true, srcB: true, dst: true, lat: 1},
	OpCmpEq:  {name: "cmpeq", fmt: FmtR, class: ClassIntALU, srcA: true, srcB: true, dst: true, lat: 1},
	OpCmpLt:  {name: "cmplt", fmt: FmtR, class: ClassIntALU, srcA: true, srcB: true, dst: true, lat: 1},
	OpCmpLe:  {name: "cmple", fmt: FmtR, class: ClassIntALU, srcA: true, srcB: true, dst: true, lat: 1},
	OpCmpULt: {name: "cmpult", fmt: FmtR, class: ClassIntALU, srcA: true, srcB: true, dst: true, lat: 1},

	OpAddI:    {name: "addi", fmt: FmtI, class: ClassIntALU, srcA: true, dst: true, lat: 1},
	OpAndI:    {name: "andi", fmt: FmtI, class: ClassIntALU, srcA: true, dst: true, lat: 1},
	OpOrI:     {name: "ori", fmt: FmtI, class: ClassIntALU, srcA: true, dst: true, lat: 1},
	OpXorI:    {name: "xori", fmt: FmtI, class: ClassIntALU, srcA: true, dst: true, lat: 1},
	OpSllI:    {name: "slli", fmt: FmtI, class: ClassIntALU, srcA: true, dst: true, lat: 1},
	OpSrlI:    {name: "srli", fmt: FmtI, class: ClassIntALU, srcA: true, dst: true, lat: 1},
	OpSraI:    {name: "srai", fmt: FmtI, class: ClassIntALU, srcA: true, dst: true, lat: 1},
	OpCmpEqI:  {name: "cmpeqi", fmt: FmtI, class: ClassIntALU, srcA: true, dst: true, lat: 1},
	OpCmpLtI:  {name: "cmplti", fmt: FmtI, class: ClassIntALU, srcA: true, dst: true, lat: 1},
	OpCmpLeI:  {name: "cmplei", fmt: FmtI, class: ClassIntALU, srcA: true, dst: true, lat: 1},
	OpCmpULtI: {name: "cmpulti", fmt: FmtI, class: ClassIntALU, srcA: true, dst: true, lat: 1},

	OpLdQ:  {name: "ldq", fmt: FmtI, class: ClassLoad, srcA: true, dst: true, lat: 1},
	OpLdL:  {name: "ldl", fmt: FmtI, class: ClassLoad, srcA: true, dst: true, lat: 1},
	OpLdBU: {name: "ldbu", fmt: FmtI, class: ClassLoad, srcA: true, dst: true, lat: 1},
	OpStQ:  {name: "stq", fmt: FmtI, class: ClassStore, srcA: true, srcB: true, lat: 1},
	OpStL:  {name: "stl", fmt: FmtI, class: ClassStore, srcA: true, srcB: true, lat: 1},
	OpStB:  {name: "stb", fmt: FmtI, class: ClassStore, srcA: true, srcB: true, lat: 1},
	OpLdF:  {name: "ldf", fmt: FmtI, class: ClassLoad, srcA: true, dst: true, dstFP: true, lat: 1},
	OpStF:  {name: "stf", fmt: FmtI, class: ClassStore, srcA: true, srcB: true, srcBFP: true, lat: 1},

	OpBeq:  {name: "beq", fmt: FmtBr, class: ClassBranch, srcA: true, lat: 1},
	OpBne:  {name: "bne", fmt: FmtBr, class: ClassBranch, srcA: true, lat: 1},
	OpBlt:  {name: "blt", fmt: FmtBr, class: ClassBranch, srcA: true, lat: 1},
	OpBle:  {name: "ble", fmt: FmtBr, class: ClassBranch, srcA: true, lat: 1},
	OpBgt:  {name: "bgt", fmt: FmtBr, class: ClassBranch, srcA: true, lat: 1},
	OpBge:  {name: "bge", fmt: FmtBr, class: ClassBranch, srcA: true, lat: 1},
	OpJmp:  {name: "jmp", fmt: FmtJ, class: ClassJump, lat: 1},
	OpJmpR: {name: "jmpr", fmt: FmtJR, class: ClassJump, srcA: true, lat: 1},
	OpJsr:  {name: "jsr", fmt: FmtJ, class: ClassCall, dst: true, lat: 1},
	OpJsrR: {name: "jsrr", fmt: FmtJR, class: ClassCall, srcA: true, dst: true, lat: 1},
	OpRet:  {name: "ret", fmt: FmtJR, class: ClassRet, srcA: true, lat: 1},

	OpFAdd:   {name: "fadd", fmt: FmtR, class: ClassFPALU, srcA: true, srcAFP: true, srcB: true, srcBFP: true, dst: true, dstFP: true, lat: 4},
	OpFSub:   {name: "fsub", fmt: FmtR, class: ClassFPALU, srcA: true, srcAFP: true, srcB: true, srcBFP: true, dst: true, dstFP: true, lat: 4},
	OpFMul:   {name: "fmul", fmt: FmtR, class: ClassFPMul, srcA: true, srcAFP: true, srcB: true, srcBFP: true, dst: true, dstFP: true, lat: 4},
	OpFDiv:   {name: "fdiv", fmt: FmtR, class: ClassFPDiv, srcA: true, srcAFP: true, srcB: true, srcBFP: true, dst: true, dstFP: true, lat: 12},
	OpFSqrt:  {name: "fsqrt", fmt: FmtR, class: ClassFPDiv, srcA: true, srcAFP: true, dst: true, dstFP: true, lat: 24},
	OpFMov:   {name: "fmov", fmt: FmtR, class: ClassFPALU, srcA: true, srcAFP: true, dst: true, dstFP: true, lat: 1},
	OpFCmpEq: {name: "fcmpeq", fmt: FmtR, class: ClassFPALU, srcA: true, srcAFP: true, srcB: true, srcBFP: true, dst: true, lat: 2},
	OpFCmpLt: {name: "fcmplt", fmt: FmtR, class: ClassFPALU, srcA: true, srcAFP: true, srcB: true, srcBFP: true, dst: true, lat: 2},
	OpFCmpLe: {name: "fcmple", fmt: FmtR, class: ClassFPALU, srcA: true, srcAFP: true, srcB: true, srcBFP: true, dst: true, lat: 2},
	OpCvtIF:  {name: "cvtif", fmt: FmtR, class: ClassFPALU, srcA: true, dst: true, dstFP: true, lat: 2},
	OpCvtFI:  {name: "cvtfi", fmt: FmtR, class: ClassFPALU, srcA: true, srcAFP: true, dst: true, lat: 2},

	OpSyscall: {name: "syscall", fmt: FmtSys, class: ClassSyscall, lat: 1},
}

// String returns the mnemonic.
func (op Op) String() string {
	if int(op) < len(opTable) {
		return opTable[op].name
	}
	return "op?"
}

// Valid reports whether op is a defined opcode other than OpInvalid.
func (op Op) Valid() bool { return op > OpInvalid && op < numOps }

// Fmt returns the instruction word format.
func (op Op) Fmt() Format { return opTable[op].fmt }

// OpClass returns the scheduling class.
func (op Op) OpClass() Class { return opTable[op].class }

// Latency returns the execution latency in cycles. Loads and stores report
// the address-generation cycle only; cache access time is added by the
// memory system.
func (op Op) Latency() int { return opTable[op].lat }

// IsMem reports whether op accesses data memory.
func (op Op) IsMem() bool {
	c := opTable[op].class
	return c == ClassLoad || c == ClassStore
}

// MemBytes returns the access size in bytes for memory ops (0 otherwise).
func (op Op) MemBytes() int {
	switch op {
	case OpLdQ, OpStQ, OpLdF, OpStF:
		return 8
	case OpLdL, OpStL:
		return 4
	case OpLdBU, OpStB:
		return 1
	}
	return 0
}

// MemSigned reports whether a load sign-extends.
func (op Op) MemSigned() bool { return op == OpLdL }

// OpByName resolves a mnemonic. It returns OpInvalid, false if unknown.
func OpByName(name string) (Op, bool) {
	op, ok := opNameTable[name]
	return op, ok
}

var opNameTable = func() map[string]Op {
	m := make(map[string]Op, int(numOps))
	for op := Op(1); op < numOps; op++ {
		m[opTable[op].name] = op
	}
	return m
}()
