// The predecoded engine: the package's only interpreter. Predecode
// resolves, once per static instruction, everything a decode-per-step
// interpreter would re-derive per dynamic instruction: register operands
// become indices of cells in the one register array (Machine.regs: the
// current window frame, the globals, a zero cell and a write sink), so a
// read or a write is one indexed access with no branch; direct control
// targets are pre-linked to micro-op indices; the hottest ALU shapes and
// all six branch conditions get their own dispatch kinds so the common
// path never calls EvalALU or BranchTaken.
//
// Two entry points drive the one micro-op array. FastRun is the
// throughput loop behind Run (profiling, Table 2) and fast-forward
// warmup checkpoints. It steps through the array by index: fall-
// through is i++, a taken direct branch loads its pre-linked index, and
// only an indirect target is converted from an address (and checked for
// alignment). The pc is rebuilt from the index only where something
// needs it: calls (the return address), syscalls, faults and the exit
// from the loop. One counter, the executed count, is kept per
// instruction; the per-class statistics are counted where they occur,
// and IntOps is derived from the others on exit. The micro-ops that make
// no call run in an inner loop whose state stays in registers, 8-byte
// loads and stores included when their word lies in the memory's cached
// page (mem.Memory.Word); the rest (generic ALU ops, other memory
// accesses, indirect jumps, calls, returns, syscalls, faults) step out
// to a slow path. Steady-state execution performs no allocation at all,
// windowed calls included (enforced by TestFastRunZeroAlloc). StepInto
// is the co-simulation step the detailed core takes once per committed
// instruction: it executes ALU, memory and control-transfer micro-ops
// itself, reporting what they did in a StepInfo, and hands only
// syscalls and faults to FastRun(1).
// Both are differentially tested against a decode-per-step reference
// interpreter kept in the tests (oracle_test.go); at every co-simulated
// commit the detailed core's own isa.Decode/MetaOf execute path is the
// independent check of the predecoder.

package emu

import (
	"encoding/binary"
	"fmt"
	"math"

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
	fkMul    // specialized: mul
	fkCmpEq  // specialized: cmpeq and cmpeqi
	fkCmpLt  // specialized: cmplt and cmplti
	fkALU    // generic integer ALU via EvalALU
	fkFMov   // specialized: fmov
	fkFAdd   // specialized: fadd
	fkFSub   // specialized: fsub
	fkFMul   // specialized: fmul
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

// fastOp is one predecoded micro-op. Operand fields hold cells of
// Machine.regs: a source that is a zero register or absent reads the
// zero cell, and a destination that is one writes the sink. imm is
// overloaded by kind: the ALU immediate operand, the sign-extended
// memory displacement, the pre-linked micro-op index of a direct control
// target, or the syscall code. An ALU op's second operand is always
// regs[srcB]+imm: register forms carry imm 0 and immediate forms read
// the zero cell.
type fastOp struct {
	imm        uint64
	op         isa.Op
	kind       fastKind
	srcA, srcB uint8
	dest       uint8
	destReg    isa.Reg // architectural destination, as StepInfo reports it
	memBytes   uint8
	memSigned  bool
}

// buildFast predecodes the program text into the micro-op array. New
// builds it once; it is immutable afterwards (text never changes).
func (m *Machine) buildFast() {
	meta := m.prog.Meta()
	ops := make([]fastOp, len(m.text))
	base := m.prog.TextBase
	for i := range m.text {
		inst := m.text[i]
		mt := &meta[i]
		pc := base + uint64(i)*4
		f := &ops[i]
		f.op = inst.Op
		f.srcA, f.srcB, f.dest = zeroCell, zeroCell, sinkCell
		f.destReg = isa.RegNone
		if !inst.Op.Valid() {
			f.kind = fkInvalid
			continue
		}
		switch mt.Class {
		case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv,
			isa.ClassFPALU, isa.ClassFPMul, isa.ClassFPDiv:
			f.srcA = readCell[mt.SrcA]
			f.dest = writeCell[mt.Dest]
			f.destReg = mt.Dest
			if mt.HasImm {
				f.imm = mt.ImmOperand()
			} else {
				f.srcB = readCell[mt.SrcB]
			}
			switch {
			case mt.Class > isa.ClassIntDiv && inst.Op == isa.OpFMov:
				f.kind = fkFMov
			case mt.Class > isa.ClassIntDiv && inst.Op == isa.OpFAdd:
				f.kind = fkFAdd
			case mt.Class > isa.ClassIntDiv && inst.Op == isa.OpFSub:
				f.kind = fkFSub
			case mt.Class > isa.ClassIntDiv && inst.Op == isa.OpFMul:
				f.kind = fkFMul
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
			case inst.Op == isa.OpMul:
				f.kind = fkMul
			case inst.Op == isa.OpCmpEq || inst.Op == isa.OpCmpEqI:
				f.kind = fkCmpEq
			case inst.Op == isa.OpCmpLt || inst.Op == isa.OpCmpLtI:
				f.kind = fkCmpLt
			default:
				f.kind = fkALU
			}
		case isa.ClassLoad:
			f.kind = fkLoad
			f.srcA = readCell[mt.SrcA]
			f.dest = writeCell[mt.Dest]
			f.destReg = mt.Dest
			f.imm = uint64(int64(inst.Imm))
			f.memBytes = mt.MemBytes
			f.memSigned = mt.MemSigned
		case isa.ClassStore:
			f.kind = fkStore
			f.srcA = readCell[mt.SrcA]
			f.srcB = readCell[mt.SrcB]
			f.imm = uint64(int64(inst.Imm))
			f.memBytes = mt.MemBytes
		case isa.ClassBranch:
			f.srcA = readCell[mt.SrcA]
			f.imm = linkTarget(inst, pc, base)
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
				f.imm = linkTarget(inst, pc, base)
			} else {
				f.kind = fkJumpInd
				f.srcA = readCell[mt.SrcA]
			}
		case isa.ClassCall:
			if inst.Op == isa.OpJsr {
				f.kind = fkCall
				f.imm = linkTarget(inst, pc, base)
			} else {
				f.kind = fkCallInd
				f.srcA = readCell[mt.SrcA]
			}
			f.dest = writeCell[isa.RegRA]
			f.destReg = isa.RegRA
		case isa.ClassRet:
			f.kind = fkRet
			f.srcA = readCell[mt.SrcA]
		case isa.ClassSyscall:
			f.kind = fkSyscall
			f.imm = uint64(int64(inst.Imm))
		default:
			f.kind = fkUnhandled
		}
	}
	m.fast = ops
}

// truth is a comparison's result as the ISA writes it: 1 or 0.
func truth(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// linkTarget pre-links the direct control transfer inst at pc: it
// returns the micro-op index of the target. Targets are 4-aligned, so
// base + index<<2 gives the address back, even outside text.
func linkTarget(inst isa.Inst, pc, base uint64) uint64 {
	t, _ := inst.ControlTarget(pc)
	return (t - base) >> 2
}

// misaligned is the micro-op index standing for a pc that is not
// 4-aligned; no aligned address maps to it. The pc itself is kept
// aside, since the index cannot give it back.
const misaligned = ^uint64(0)

// index returns the micro-op index of pc, misaligned when pc&3 != 0.
func index(pc, base uint64) uint64 {
	if pc&3 != 0 {
		return misaligned
	}
	return (pc - base) >> 2
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
		ops   = m.fast
		regs  = &m.regs
		mmem  = m.mem
		st    = &m.Stats
		start = m.Stats
		base  = m.prog.TextBase
		i     = index(m.pc, base) // m.pc holds the pc while i is misaligned
		// jumps counts unconditional jumps, which have no Stats field.
		// faulted is 1 when the instruction that faulted still counts in
		// Stats.Insts (a return, a syscall, an unhandled op).
		jumps, faulted uint64
	)
	for executed < n {
		// The inner loop runs the micro-ops that make no call. Values
		// live across a call are spilled where the call's block is
		// dominated, so keeping every call out here keeps the loop's
		// state, the write mask included, in registers.
		wmask := m.wmask
	inner:
		for ; executed < n; executed++ {
			if i >= uint64(len(ops)) {
				break
			}
			f := &ops[i]
			d := f.dest
			switch f.kind {
			case fkAddImm:
				regs[d] = regs[f.srcA] + f.imm
			case fkAdd:
				regs[d] = regs[f.srcA] + regs[f.srcB]
			case fkSub:
				regs[d] = regs[f.srcA] - regs[f.srcB]
			case fkOr:
				regs[d] = regs[f.srcA] | regs[f.srcB]
			case fkOrImm:
				regs[d] = regs[f.srcA] | f.imm
			case fkSllImm:
				regs[d] = regs[f.srcA] << (f.imm & 63)
			case fkMul:
				regs[d] = regs[f.srcA] * regs[f.srcB]
			case fkCmpEq:
				regs[d] = truth(regs[f.srcA] == regs[f.srcB]+f.imm)
			case fkCmpLt:
				regs[d] = truth(int64(regs[f.srcA]) < int64(regs[f.srcB]+f.imm))
			case fkFMov:
				regs[d] = regs[f.srcA]
				st.FPOps++
			case fkFAdd:
				regs[d] = math.Float64bits(math.Float64frombits(regs[f.srcA]) + math.Float64frombits(regs[f.srcB]))
				st.FPOps++
			case fkFSub:
				regs[d] = math.Float64bits(math.Float64frombits(regs[f.srcA]) - math.Float64frombits(regs[f.srcB]))
				st.FPOps++
			case fkFMul:
				regs[d] = math.Float64bits(math.Float64frombits(regs[f.srcA]) * math.Float64frombits(regs[f.srcB]))
				st.FPOps++
			case fkLoad:
				w := mmem.Word(regs[f.srcA] + f.imm)
				if w == nil || f.memBytes != 8 {
					break inner
				}
				regs[d] = binary.LittleEndian.Uint64(w[:])
				st.Loads++
			case fkStore:
				w := mmem.Word(regs[f.srcA] + f.imm)
				if w == nil || f.memBytes != 8 {
					break inner
				}
				binary.LittleEndian.PutUint64(w[:], regs[f.srcB])
				st.Stores++
				i++
				continue

			case fkBeq:
				st.CondBranches++
				if int64(regs[f.srcA]) == 0 {
					st.TakenCond++
					i = f.imm
					continue
				}
				i++
				continue
			case fkBne:
				st.CondBranches++
				if int64(regs[f.srcA]) != 0 {
					st.TakenCond++
					i = f.imm
					continue
				}
				i++
				continue
			case fkBlt:
				st.CondBranches++
				if int64(regs[f.srcA]) < 0 {
					st.TakenCond++
					i = f.imm
					continue
				}
				i++
				continue
			case fkBle:
				st.CondBranches++
				if int64(regs[f.srcA]) <= 0 {
					st.TakenCond++
					i = f.imm
					continue
				}
				i++
				continue
			case fkBgt:
				st.CondBranches++
				if int64(regs[f.srcA]) > 0 {
					st.TakenCond++
					i = f.imm
					continue
				}
				i++
				continue
			case fkBge:
				st.CondBranches++
				if int64(regs[f.srcA]) >= 0 {
					st.TakenCond++
					i = f.imm
					continue
				}
				i++
				continue
			case fkJump:
				jumps++
				i = f.imm
				continue

			default:
				break inner
			}
			wmask |= cellBit[d]
			i++
		}
		m.wmask = wmask
		if executed == n {
			break
		}

		// One micro-op that calls out, or a fault.
		if i >= uint64(len(ops)) {
			if i != misaligned {
				m.pc = base + i<<2
			}
			err = fmt.Errorf("emu: pc %#x outside text (%s)", m.pc, m.prog.SymbolFor(m.pc))
			break
		}
		f := &ops[i]
		next := i + 1
		switch f.kind {
		case fkALU:
			regs[f.dest] = isa.EvalALU(f.op, regs[f.srcA], regs[f.srcB]+f.imm)
			m.wmask |= cellBit[f.dest]
		case fkALUFP:
			regs[f.dest] = isa.EvalALU(f.op, regs[f.srcA], regs[f.srcB])
			m.wmask |= cellBit[f.dest]
			st.FPOps++
		case fkLoad:
			raw := mmem.Read(regs[f.srcA]+f.imm, int(f.memBytes))
			if f.memSigned {
				raw = uint64(int64(int32(raw)))
			}
			regs[f.dest] = raw
			m.wmask |= cellBit[f.dest]
			st.Loads++
		case fkStore:
			mmem.Write(regs[f.srcA]+f.imm, int(f.memBytes), regs[f.srcB])
			st.Stores++

		case fkJumpInd:
			jumps++
			m.pc = regs[f.srcA]
			next = index(m.pc, base)
		case fkCall, fkCallInd:
			t := regs[f.srcA] // an indirect target, read before ra is written
			regs[f.dest] = base + next<<2
			m.wmask |= cellBit[f.dest]
			m.pushWindow()
			st.Calls++
			if f.kind == fkCall {
				next = f.imm
			} else {
				m.pc, next = t, index(t, base)
			}
		case fkRet:
			t := regs[f.srcA]
			if m.cfg.Windowed {
				if m.depth == 0 {
					faulted = 1
					err = fmt.Errorf("emu: register window underflow at pc %#x", base+i<<2)
					break
				}
				m.popWindow()
			}
			st.Returns++
			m.pc, next = t, index(t, base)

		case fkSyscall:
			// syscall reads registers and reports errors against m.pc.
			m.pc = base + i<<2
			if err = m.syscall(int32(f.imm)); err != nil {
				faulted = 1
				break
			}
			st.Syscalls++

		case fkInvalid:
			pc := base + i<<2
			err = fmt.Errorf("emu: invalid instruction at %#x (%s)", pc, m.prog.SymbolFor(pc))
		default: // fkUnhandled
			faulted = 1
			err = fmt.Errorf("emu: unhandled class for %v at %#x", f.op, base+i<<2)
		}
		if err != nil {
			break // the faulting instruction is not executed: i and m.pc stay on it
		}
		i = next
		executed++
		if m.exited {
			break
		}
	}
	if i != misaligned {
		m.pc = base + i<<2
	}
	// Every executed instruction that is not an integer op counts in
	// exactly one of these (or in jumps), so IntOps needs no counting.
	st.IntOps += executed - jumps - (st.FPOps - start.FPOps) - (st.Loads - start.Loads) -
		(st.Stores - start.Stores) - (st.CondBranches - start.CondBranches) -
		(st.Calls - start.Calls) - (st.Returns - start.Returns) - (st.Syscalls - start.Syscalls)
	st.Insts += executed + faulted
	return executed, err
}

// StepInto executes one instruction and reports what it did; the
// detailed core calls it once per committed instruction to co-simulate.
// ALU, memory and control-transfer micro-ops run here, straight from the
// micro-op array; syscalls and faults run through FastRun(1) and are read
// back from the machine state. An error leaves info holding the faulting
// instruction's pc and word (zeroed when the machine has exited or the
// pc is outside text).
func (m *Machine) StepInto(info *StepInfo) error {
	pc, base := m.pc, m.prog.TextBase
	i := (pc - base) >> 2
	if m.exited || i >= uint64(len(m.fast)) || pc&3 != 0 {
		*info = StepInfo{}
		_, err := m.FastRun(1) // reports the fault
		return err
	}
	f := &m.fast[i]
	// Zero, then fill: a composite literal would be built in a stack
	// temporary and copied out through a store-forwarding stall.
	*info = StepInfo{}
	info.PC, info.Inst, info.Dest, info.NextPC = pc, m.text[i], isa.RegNone, pc+4
	switch k := f.kind; {
	case k >= fkFirstALU && k <= fkLastALU:
		v := isa.EvalALU(f.op, m.regs[f.srcA], m.regs[f.srcB]+f.imm)
		m.regs[f.dest] = v
		m.wmask |= cellBit[f.dest]
		info.Dest, info.DestVal = f.destReg, v
		if k >= fkFirstFP {
			m.Stats.FPOps++
		} else {
			m.Stats.IntOps++
		}
	case k == fkLoad:
		addr := m.regs[f.srcA] + f.imm
		raw := m.mem.Read(addr, int(f.memBytes))
		if f.memSigned {
			raw = uint64(int64(int32(raw)))
		}
		m.regs[f.dest] = raw
		m.wmask |= cellBit[f.dest]
		info.Dest, info.DestVal, info.Addr = f.destReg, raw, addr
		m.Stats.Loads++
	case k == fkStore:
		addr := m.regs[f.srcA] + f.imm
		v := m.regs[f.srcB]
		if f.memBytes < 8 {
			v &= 1<<(8*f.memBytes) - 1 // report the stored (truncated) value
		}
		m.mem.Write(addr, int(f.memBytes), v)
		info.IsStore, info.Addr, info.DestVal = true, addr, v
		m.Stats.Stores++
	case k >= fkBeq && k <= fkBge:
		m.Stats.CondBranches++
		if isa.BranchTaken(f.op, m.regs[f.srcA]) {
			m.Stats.TakenCond++
			info.Taken, info.NextPC = true, base+f.imm<<2
		}
	case k == fkJump:
		info.Taken, info.NextPC = true, base+f.imm<<2
	case k == fkJumpInd:
		info.Taken, info.NextPC = true, m.regs[f.srcA]
	case k == fkCall || k == fkCallInd:
		t := base + f.imm<<2
		if k == fkCallInd {
			t = m.regs[f.srcA]
		}
		m.regs[f.dest] = pc + 4
		m.wmask |= cellBit[f.dest]
		m.pushWindow()
		m.Stats.Calls++
		info.Dest, info.DestVal = f.destReg, pc+4
		info.Taken, info.NextPC = true, t
	case k == fkRet && (!m.cfg.Windowed || m.depth > 0):
		t := m.regs[f.srcA]
		if m.cfg.Windowed {
			m.popWindow()
		}
		m.Stats.Returns++
		info.Taken, info.NextPC = true, t
	default: // syscalls, window underflow, invalid and unhandled words
		if _, err := m.FastRun(1); err != nil {
			return err
		}
		info.NextPC = m.pc
		return nil
	}
	m.Stats.Insts++
	m.pc = info.NextPC
	return nil
}
