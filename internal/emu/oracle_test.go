package emu

import (
	"fmt"

	"vca/internal/isa"
)

// The reference interpreter: a decode-per-step, class-switch
// implementation of the ISA, kept only as the differential oracle for
// the predecoded engine. It works from the program's isa.Decode/MetaOf
// view (never from the micro-op array), so a predecoder bug shows up as
// a divergence against it.

// oracleStepInto executes one instruction the reference way and reports
// what it did.
func (m *Machine) oracleStepInto(info *StepInfo) error {
	if m.exited {
		*info = StepInfo{}
		return fmt.Errorf("emu: program has exited")
	}
	if !m.prog.InText(m.pc) {
		*info = StepInfo{}
		return fmt.Errorf("emu: pc %#x outside text (%s)", m.pc, m.prog.SymbolFor(m.pc))
	}
	idx := (m.pc - m.prog.TextBase) / 4
	inst := m.prog.Predecode()[idx]
	mt := &m.prog.Meta()[idx]
	*info = StepInfo{PC: m.pc, Inst: inst, Dest: isa.RegNone, NextPC: m.pc + 4}
	if !inst.Op.Valid() {
		return fmt.Errorf("emu: invalid instruction at %#x (%s)", m.pc, m.prog.SymbolFor(m.pc))
	}
	m.Stats.Insts++

	switch mt.Class {
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv, isa.ClassFPALU, isa.ClassFPMul, isa.ClassFPDiv:
		a := m.ReadReg(mt.SrcA)
		var b uint64
		if mt.HasImm {
			b = mt.ImmOperand()
		} else {
			b = m.ReadReg(mt.SrcB)
		}
		v := isa.EvalALU(inst.Op, a, b)
		m.WriteReg(mt.Dest, v)
		info.Dest, info.DestVal = mt.Dest, v
		if mt.Class <= isa.ClassIntDiv {
			m.Stats.IntOps++
		} else {
			m.Stats.FPOps++
		}

	case isa.ClassLoad:
		addr := inst.MemEA(m.ReadReg(mt.SrcA))
		raw := m.mem.Read(addr, int(mt.MemBytes))
		if mt.MemSigned {
			raw = uint64(int64(int32(raw)))
		}
		m.WriteReg(mt.Dest, raw)
		info.Dest, info.DestVal, info.Addr = mt.Dest, raw, addr
		m.Stats.Loads++

	case isa.ClassStore:
		addr := inst.MemEA(m.ReadReg(mt.SrcA))
		v := m.ReadReg(mt.SrcB)
		size := int(mt.MemBytes)
		if size < 8 {
			v &= 1<<(8*size) - 1 // report the stored (truncated) value
		}
		m.mem.Write(addr, size, v)
		info.IsStore, info.Addr, info.DestVal = true, addr, v
		m.Stats.Stores++

	case isa.ClassBranch:
		m.Stats.CondBranches++
		if isa.BranchTaken(inst.Op, m.ReadReg(mt.SrcA)) {
			t, _ := inst.ControlTarget(m.pc)
			info.NextPC, info.Taken = t, true
			m.Stats.TakenCond++
		}

	case isa.ClassJump:
		if inst.Op == isa.OpJmp {
			t, _ := inst.ControlTarget(m.pc)
			info.NextPC = t
		} else {
			info.NextPC = m.ReadReg(mt.SrcA)
		}
		info.Taken = true

	case isa.ClassCall:
		ret := m.pc + 4
		var t uint64
		if inst.Op == isa.OpJsr {
			t, _ = inst.ControlTarget(m.pc)
		} else {
			t = m.ReadReg(mt.SrcA)
		}
		// ra is global, so it is written before the window rotates (and
		// would be visible either way).
		m.WriteReg(isa.RegRA, ret)
		m.pushWindow()
		info.Dest, info.DestVal = isa.RegRA, ret
		info.NextPC, info.Taken = t, true
		m.Stats.Calls++

	case isa.ClassRet:
		t := m.ReadReg(mt.SrcA)
		if err := m.oraclePopWindow(); err != nil {
			return err
		}
		info.NextPC, info.Taken = t, true
		m.Stats.Returns++

	case isa.ClassSyscall:
		if err := m.syscall(inst.Imm); err != nil {
			return err
		}
		m.Stats.Syscalls++

	default:
		return fmt.Errorf("emu: unhandled class for %v at %#x", inst.Op, m.pc)
	}

	m.pc = info.NextPC
	return nil
}

func (m *Machine) oraclePopWindow() error {
	if !m.cfg.Windowed {
		return nil
	}
	if m.depth == 0 {
		return fmt.Errorf("emu: register window underflow at pc %#x", m.pc)
	}
	m.popWindow()
	return nil
}

// oracleRun is Run on the reference interpreter: step until exit, error,
// or the instruction budget is exhausted.
func (m *Machine) oracleRun() (StopReason, error) {
	var info StepInfo
	for m.Stats.Insts < m.cfg.MaxInsts {
		if err := m.oracleStepInto(&info); err != nil {
			return StopError, err
		}
		if m.exited {
			return StopExited, nil
		}
	}
	return StopMaxInsts, nil
}
