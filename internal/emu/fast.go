// The predecoded engine: the package's only interpreter. Predecode
// resolves, once per static instruction, everything a decode-per-step
// interpreter would re-derive per dynamic instruction: register operands
// become direct frame/global slot indices (regSlot applied at build
// time), pc-relative control targets are pre-linked to absolute
// addresses, the hottest ALU shapes and all six branch conditions get
// their own dispatch kinds so the common path never calls EvalALU or
// BranchTaken, and window push/pop is specialized into the call/ret
// cases.
//
// Two entry points drive the one micro-op array. FastRun is the
// throughput loop behind Run (profiling, Table 2), fast-forward warmup
// and region checkpoints: it keeps its statistics in locals and flushes
// them on exit, so steady-state execution performs no per-instruction
// allocation at all (enforced by TestFastRunZeroAlloc). StepInto is the
// co-simulation step the detailed core takes once per committed
// instruction: it executes straight-line micro-ops itself, reporting
// what they did in a StepInfo, and hands control transfers, syscalls
// and faults to FastRun(1). Both are differentially tested against a
// decode-per-step reference interpreter kept in the tests
// (oracle_test.go); at every co-simulated commit the detailed core's own
// isa.Decode/MetaOf execute path is the independent check of the
// predecoder.

package emu

import (
	"fmt"

	"vca/internal/isa"
)

// fastKind is the dispatch code of one predecoded micro-op. The ALU
// kinds are contiguous (integer, then floating point), so StepInto can
// classify a micro-op with two comparisons.
type fastKind uint8

const (
	// fkInvalid marks an undecodable word: executing it errors with
	// "invalid instruction" without counting it.
	fkInvalid fastKind = iota
	// fkUnhandled marks a valid opcode whose class the engine does not
	// execute; it counts the instruction and then errors.
	fkUnhandled
	fkAdd    // specialized: add
	fkAddImm // specialized: addi
	fkSub    // specialized: sub
	fkOr     // specialized: or (and the mov pseudo-op)
	fkOrImm  // specialized: ori
	fkSllImm // specialized: slli, shift pre-masked into imm
	fkALU    // generic integer reg-reg ALU via EvalALU
	fkALUImm // generic integer reg-imm ALU via EvalALU
	fkFMov   // specialized: fmov
	fkALUFP  // generic floating-point ALU via EvalALU
	fkLoad   // memory load (size/sign in memBytes/memSigned)
	fkStore  // memory store
	fkBeq    // specialized branches: condition inline, target pre-linked
	fkBne
	fkBlt
	fkBle
	fkBgt
	fkBge
	fkJump    // direct jump, target pre-linked
	fkJumpInd // register-indirect jump
	fkCall    // direct call: writes ra, pushes a window frame if windowed
	fkCallInd // register-indirect call
	fkRet     // return: pops a window frame if windowed
	fkSyscall // syscall, code in imm

	fkFirstALU = fkAdd
	fkFirstFP  = fkFMov
	fkLastALU  = fkALUFP
)

// fastOp is one predecoded micro-op. Operand fields hold resolved regSlot
// indices (-1 = zero register / absent: reads yield 0, writes discard).
// imm is overloaded by kind: the ALU immediate operand, the sign-extended
// memory displacement, the pre-linked absolute control target, or the
// syscall code. An ALU op's second operand is always rslot(srcB)+imm:
// register forms carry imm 0 and immediate forms carry srcB -1.
type fastOp struct {
	imm        uint64
	op         isa.Op
	kind       fastKind
	srcA, srcB int8
	dest       int8
	destReg    isa.Reg // architectural destination, as StepInfo reports it
	memBytes   uint8
	memSigned  bool
}

// buildFast predecodes the program text into the micro-op array. New
// builds it once; it is immutable afterwards (text never changes).
func (m *Machine) buildFast() {
	meta := m.prog.Meta()
	ops := make([]fastOp, len(m.text))
	for i := range m.text {
		inst := m.text[i]
		mt := &meta[i]
		pc := m.prog.TextBase + uint64(i)*4
		f := &ops[i]
		f.op = inst.Op
		f.srcA, f.srcB, f.dest = -1, -1, -1
		f.destReg = isa.RegNone
		if !inst.Op.Valid() {
			f.kind = fkInvalid
			continue
		}
		switch mt.Class {
		case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv,
			isa.ClassFPALU, isa.ClassFPMul, isa.ClassFPDiv:
			f.srcA = regSlot[mt.SrcA]
			f.dest = regSlot[mt.Dest]
			f.destReg = mt.Dest
			if mt.HasImm {
				f.imm = mt.Imm
			} else {
				f.srcB = regSlot[mt.SrcB]
			}
			switch {
			case mt.Class > isa.ClassIntDiv && inst.Op == isa.OpFMov:
				f.kind = fkFMov
			case mt.Class > isa.ClassIntDiv:
				f.kind = fkALUFP
			case inst.Op == isa.OpAdd:
				f.kind = fkAdd
			case inst.Op == isa.OpAddI:
				f.kind = fkAddImm
			case inst.Op == isa.OpSub:
				f.kind = fkSub
			case inst.Op == isa.OpOr:
				f.kind = fkOr
			case inst.Op == isa.OpOrI:
				f.kind = fkOrImm
			case inst.Op == isa.OpSllI:
				f.kind = fkSllImm
				f.imm &= 63
			case mt.HasImm:
				f.kind = fkALUImm
			default:
				f.kind = fkALU
			}
		case isa.ClassLoad:
			f.kind = fkLoad
			f.srcA = regSlot[mt.SrcA]
			f.dest = regSlot[mt.Dest]
			f.destReg = mt.Dest
			f.imm = uint64(int64(inst.Imm))
			f.memBytes = mt.MemBytes
			f.memSigned = mt.MemSigned
		case isa.ClassStore:
			f.kind = fkStore
			f.srcA = regSlot[mt.SrcA]
			f.srcB = regSlot[mt.SrcB]
			f.imm = uint64(int64(inst.Imm))
			f.memBytes = mt.MemBytes
		case isa.ClassBranch:
			f.srcA = regSlot[mt.SrcA]
			f.imm, _ = inst.ControlTarget(pc)
			switch inst.Op {
			case isa.OpBeq:
				f.kind = fkBeq
			case isa.OpBne:
				f.kind = fkBne
			case isa.OpBlt:
				f.kind = fkBlt
			case isa.OpBle:
				f.kind = fkBle
			case isa.OpBgt:
				f.kind = fkBgt
			case isa.OpBge:
				f.kind = fkBge
			default:
				f.kind = fkUnhandled
			}
		case isa.ClassJump:
			if inst.Op == isa.OpJmp {
				f.kind = fkJump
				f.imm, _ = inst.ControlTarget(pc)
			} else {
				f.kind = fkJumpInd
				f.srcA = regSlot[mt.SrcA]
			}
		case isa.ClassCall:
			if inst.Op == isa.OpJsr {
				f.kind = fkCall
				f.imm, _ = inst.ControlTarget(pc)
			} else {
				f.kind = fkCallInd
				f.srcA = regSlot[mt.SrcA]
			}
			f.dest = regSlot[isa.RegRA]
			f.destReg = isa.RegRA
		case isa.ClassRet:
			f.kind = fkRet
			f.srcA = regSlot[mt.SrcA]
		case isa.ClassSyscall:
			f.kind = fkSyscall
			f.imm = uint64(int64(inst.Imm))
		default:
			f.kind = fkUnhandled
		}
	}
	m.fast = ops
}

// rslot reads a resolved register slot (-1 = zero register).
func (m *Machine) rslot(s int8) uint64 {
	if s < 0 {
		return 0
	}
	if s < isa.WindowSlots {
		return m.cur[s]
	}
	return m.globals[s-isa.WindowSlots]
}

// wslot writes a resolved register slot (-1 discards).
func (m *Machine) wslot(s int8, v uint64) {
	if s < 0 {
		return
	}
	if s < isa.WindowSlots {
		m.cur[s] = v
		*m.curMask |= 1 << uint(s)
		return
	}
	m.globals[s-isa.WindowSlots] = v
}

// FastRun executes up to n instructions and returns how many actually
// executed. It stops early — with executed < n and a nil error — when
// the program exits; it stops with an error on an invalid instruction, a
// pc outside text, window underflow, or a bad syscall, with every
// instruction before the fault applied. Architectural state, statistics,
// and output after FastRun(n) are bit-identical to n single steps
// (enforced by the lockstep differential tests). FastRun ignores
// Config.MaxInsts: the caller's n is the budget.
func (m *Machine) FastRun(n uint64) (executed uint64, err error) {
	if m.exited {
		return 0, fmt.Errorf("emu: program has exited")
	}
	var (
		ops  = m.fast
		base = m.prog.TextBase
		pc   = m.pc
		mmem = m.mem

		insts, intOps, fpOps  uint64
		loads, stores         uint64
		condBr, takenBr       uint64
		calls, rets, syscalls uint64
	)
	// Locals are flushed on every exit path, including errors, so partial
	// progress is always visible — same as stepping individually.
	defer func() {
		m.pc = pc
		m.Stats.Insts += insts
		m.Stats.IntOps += intOps
		m.Stats.FPOps += fpOps
		m.Stats.Loads += loads
		m.Stats.Stores += stores
		m.Stats.CondBranches += condBr
		m.Stats.TakenCond += takenBr
		m.Stats.Calls += calls
		m.Stats.Returns += rets
		m.Stats.Syscalls += syscalls
	}()

	for executed < n {
		idx := (pc - base) >> 2
		if idx >= uint64(len(ops)) || pc&3 != 0 {
			return executed, fmt.Errorf("emu: pc %#x outside text (%s)", pc, m.prog.SymbolFor(pc))
		}
		f := &ops[idx]
		switch f.kind {
		case fkAddImm:
			m.wslot(f.dest, m.rslot(f.srcA)+f.imm)
			intOps++
			pc += 4
		case fkAdd:
			m.wslot(f.dest, m.rslot(f.srcA)+m.rslot(f.srcB))
			intOps++
			pc += 4
		case fkSub:
			m.wslot(f.dest, m.rslot(f.srcA)-m.rslot(f.srcB))
			intOps++
			pc += 4
		case fkOr:
			m.wslot(f.dest, m.rslot(f.srcA)|m.rslot(f.srcB))
			intOps++
			pc += 4
		case fkOrImm:
			m.wslot(f.dest, m.rslot(f.srcA)|f.imm)
			intOps++
			pc += 4
		case fkSllImm:
			m.wslot(f.dest, m.rslot(f.srcA)<<f.imm)
			intOps++
			pc += 4
		case fkALU:
			m.wslot(f.dest, isa.EvalALU(f.op, m.rslot(f.srcA), m.rslot(f.srcB)))
			intOps++
			pc += 4
		case fkALUImm:
			m.wslot(f.dest, isa.EvalALU(f.op, m.rslot(f.srcA), f.imm))
			intOps++
			pc += 4
		case fkFMov:
			m.wslot(f.dest, m.rslot(f.srcA))
			fpOps++
			pc += 4
		case fkALUFP:
			m.wslot(f.dest, isa.EvalALU(f.op, m.rslot(f.srcA), m.rslot(f.srcB)))
			fpOps++
			pc += 4

		case fkLoad:
			raw := mmem.Read(m.rslot(f.srcA)+f.imm, int(f.memBytes))
			if f.memSigned {
				raw = uint64(int64(int32(raw)))
			}
			m.wslot(f.dest, raw)
			loads++
			pc += 4
		case fkStore:
			mmem.Write(m.rslot(f.srcA)+f.imm, int(f.memBytes), m.rslot(f.srcB))
			stores++
			pc += 4

		case fkBeq:
			condBr++
			if int64(m.rslot(f.srcA)) == 0 {
				takenBr++
				pc = f.imm
			} else {
				pc += 4
			}
		case fkBne:
			condBr++
			if int64(m.rslot(f.srcA)) != 0 {
				takenBr++
				pc = f.imm
			} else {
				pc += 4
			}
		case fkBlt:
			condBr++
			if int64(m.rslot(f.srcA)) < 0 {
				takenBr++
				pc = f.imm
			} else {
				pc += 4
			}
		case fkBle:
			condBr++
			if int64(m.rslot(f.srcA)) <= 0 {
				takenBr++
				pc = f.imm
			} else {
				pc += 4
			}
		case fkBgt:
			condBr++
			if int64(m.rslot(f.srcA)) > 0 {
				takenBr++
				pc = f.imm
			} else {
				pc += 4
			}
		case fkBge:
			condBr++
			if int64(m.rslot(f.srcA)) >= 0 {
				takenBr++
				pc = f.imm
			} else {
				pc += 4
			}

		case fkJump:
			pc = f.imm
		case fkJumpInd:
			pc = m.rslot(f.srcA)

		case fkCall:
			m.wslot(f.dest, pc+4)
			m.pushWindow()
			calls++
			pc = f.imm
		case fkCallInd:
			t := m.rslot(f.srcA)
			m.wslot(f.dest, pc+4)
			m.pushWindow()
			calls++
			pc = t
		case fkRet:
			t := m.rslot(f.srcA)
			if m.cfg.Windowed {
				if m.depth == 0 {
					insts++ // the faulting return is counted
					return executed, fmt.Errorf("emu: register window underflow at pc %#x", pc)
				}
				m.depth--
				m.cur = &m.windows[m.depth]
				m.curMask = &m.wmask[m.depth]
			}
			rets++
			pc = t

		case fkSyscall:
			// syscall reads registers and reports errors against m.pc.
			m.pc = pc
			if err := m.syscall(int32(f.imm)); err != nil {
				insts++ // the faulting syscall is counted
				return executed, err
			}
			syscalls++
			insts++
			executed++
			pc += 4
			if m.exited {
				return executed, nil
			}
			continue

		case fkInvalid:
			return executed, fmt.Errorf("emu: invalid instruction at %#x (%s)", pc, m.prog.SymbolFor(pc))
		default: // fkUnhandled
			insts++
			return executed, fmt.Errorf("emu: unhandled class for %v at %#x", f.op, pc)
		}
		insts++
		executed++
	}
	return executed, nil
}

// StepInto executes one instruction and reports what it did; the
// detailed core calls it once per committed instruction to co-simulate.
// ALU, load and store micro-ops run here, straight from the micro-op
// array; control transfers, syscalls and faults run through FastRun(1)
// and are read back from the machine state. An error leaves info
// holding the faulting instruction's pc and word (zeroed when the
// machine has exited or the pc is outside text).
func (m *Machine) StepInto(info *StepInfo) error {
	pc := m.pc
	idx := (pc - m.prog.TextBase) >> 2
	if m.exited || idx >= uint64(len(m.fast)) || pc&3 != 0 {
		*info = StepInfo{}
		_, err := m.FastRun(1) // reports the fault
		return err
	}
	f := &m.fast[idx]
	// Zero, then fill: a composite literal would be built in a stack
	// temporary and copied out through a store-forwarding stall.
	*info = StepInfo{}
	info.PC, info.Inst, info.Dest, info.NextPC = pc, m.text[idx], isa.RegNone, pc+4
	switch {
	case f.kind >= fkFirstALU && f.kind <= fkLastALU:
		v := isa.EvalALU(f.op, m.rslot(f.srcA), m.rslot(f.srcB)+f.imm)
		m.wslot(f.dest, v)
		info.Dest, info.DestVal = f.destReg, v
		if f.kind >= fkFirstFP {
			m.Stats.FPOps++
		} else {
			m.Stats.IntOps++
		}
	case f.kind == fkLoad:
		addr := m.rslot(f.srcA) + f.imm
		raw := m.mem.Read(addr, int(f.memBytes))
		if f.memSigned {
			raw = uint64(int64(int32(raw)))
		}
		m.wslot(f.dest, raw)
		info.Dest, info.DestVal, info.Addr = f.destReg, raw, addr
		m.Stats.Loads++
	case f.kind == fkStore:
		addr := m.rslot(f.srcA) + f.imm
		v := m.rslot(f.srcB)
		if f.memBytes < 8 {
			v &= 1<<(8*f.memBytes) - 1 // report the stored (truncated) value
		}
		m.mem.Write(addr, int(f.memBytes), v)
		info.IsStore, info.Addr, info.DestVal = true, addr, v
		m.Stats.Stores++
	default:
		taken := m.Stats.TakenCond
		if _, err := m.FastRun(1); err != nil {
			return err
		}
		info.NextPC = m.pc
		info.Taken = f.kind >= fkJump && f.kind <= fkRet || m.Stats.TakenCond != taken
		if f.kind == fkCall || f.kind == fkCallInd {
			info.Dest, info.DestVal = f.destReg, pc+4
		}
		return nil
	}
	m.Stats.Insts++
	m.pc = pc + 4
	return nil
}
