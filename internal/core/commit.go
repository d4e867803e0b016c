package core

import (
	"fmt"

	"vca/internal/emu"
	"vca/internal/isa"
	"vca/internal/rename"
)

// commitStage retires up to Width completed instructions in order from the
// head of the shared ROB. Stores write memory (and the data cache) here;
// syscalls take effect here; conventional-window overflow/underflow traps
// are detected here (§4.1); and, when enabled, every committed instruction
// is cross-checked against the functional emulator.
//
//vca:hot
func (m *Machine) commitStage() {
	for n := 0; n < m.cfg.Width && m.robLen() > 0; n++ {
		u := m.rob[m.robHead]
		if !u.done {
			if n == 0 {
				m.noteCommitStall(u)
			}
			return
		}
		th := m.threads[u.thread]

		// Exact-stop freeze: once a thread has committed its full budget,
		// no further real instruction of that thread may retire (injected
		// window-trap operations still drain — they are architectural
		// bookkeeping of an already-committed call/return). The ROB is
		// shared and in-order, so freezing the head freezes the stage.
		if m.cfg.StopExact && m.cfg.StopAfter > 0 && !u.injected && th.committed >= m.cfg.StopAfter {
			return
		}

		if u.isStore() {
			if m.dl1Ports == 0 {
				if n == 0 {
					m.cnt.commitStall[csStorePort]++
				}
				return // store commit needs a cache port this cycle
			}
			m.dl1Ports--
			th.mem.Write(u.ea, u.memBytes, u.storeData)
			m.hier.DataAccess(th.cacheAddr(u.ea), true, u.cause())
			m.removeFromLSQ(u)
		}

		if !u.injected && u.class == isa.ClassInvalid {
			//lint:hotalloc run-fatal error construction; executes at most once per run
			m.err = fmt.Errorf("core: invalid instruction reached commit at pc %#x (%s), cycle %d",
				u.pc, th.prog.SymbolFor(u.pc), m.cycle)
			return
		}

		// Architectural rename commit.
		switch m.cfg.Rename {
		case RenameConventional:
			if u.destPhys >= 0 {
				m.conv.CommitDest(th.id, u.destLog, u.destPhys)
			}
		case RenameVCA:
			for i := 0; i < u.nsrc; i++ {
				if p := u.srcPhys[i]; p >= 0 {
					m.vca.ReleaseSource(p)
					m.vca.ReleaseRetired(p)
				}
			}
			if u.destPhys >= 0 {
				m.vca.CommitDest(u.destAddr, u.destPhys, u.destPrev)
			}
		}

		// Committed window state.
		th.commitWBP += uint64(u.wbpDelta)
		th.commitDepth += u.depDelta

		if !u.injected {
			if m.cfg.CoSim {
				if err := m.cosimCheck(th, u); err != nil {
					m.err = err
					return
				}
			}
			th.committed++
			m.stats.Committed[th.id]++
			if u.isCtl {
				th.commitPC = u.actualNPC
			} else {
				th.commitPC = u.pc + 4
			}
		} else {
			th.injectedLive--
		}
		if m.cfg.TraceWriter != nil {
			m.traceCommit(m.cfg.TraceWriter, th, u)
		}
		if m.cfg.ChromeTrace != nil {
			m.chromeCommit(th, u)
		}
		th.robCount--
		m.popROB()
		m.cnt.commitUops++

		if !u.injected && u.class == isa.ClassSyscall && m.commitSyscall(th, u) {
			m.freeUop(u)
			return // thread exited: pipeline flushed
		}

		// Conventional window overflow/underflow traps.
		if m.cfg.Window == WindowConventional && u.depDelta != 0 && m.maybeWindowTrap(th, u) {
			m.freeUop(u)
			return
		}

		// Retired and fully processed: recycle. Nothing references a
		// committed uop once it has left the ROB (done implies it already
		// left the IQ, LSQ, and in-flight execution list).
		m.freeUop(u)
	}
}

func (m *Machine) removeFromLSQ(u *uop) {
	for i, v := range m.lsq {
		if v == u {
			m.lsq = append(m.lsq[:i], m.lsq[i+1:]...)
			m.threads[u.thread].lsqStores--
			return
		}
	}
}

// commitSyscall applies a syscall's architectural effect. It reports
// whether the thread exited.
// Syscall commit is an inherently rare, I/O-bound slow path.
//
//vca:cold
func (m *Machine) commitSyscall(th *thread, u *uop) bool {
	switch u.inst.Imm {
	case isa.SysExit:
		th.done = true
		th.exitCode = int64(u.sysVals[0])
		m.flushYounger(th, u.seq)
		return true
	case isa.SysPutChar:
		th.output.WriteByte(byte(u.sysVals[0]))
	case isa.SysPutInt:
		fmt.Fprintf(&th.output, "%d", int64(u.sysVals[0]))
	case isa.SysPutFloat:
		fmt.Fprintf(&th.output, "%g", f64bits(u.sysVals[0]))
	case isa.SysPutStr:
		addr, n := u.sysVals[0], int(u.sysVals[1])
		if n >= 0 && n <= 1<<20 {
			th.output.Write(th.mem.ReadBytes(addr, n))
		}
	default:
		m.err = fmt.Errorf("core: unknown syscall %d at pc %#x", u.inst.Imm, u.pc)
	}
	return false
}

// maybeWindowTrap checks committed window residency after a call or
// return and, when a window must be copied, flushes the thread, stalls
// fetch for the trap penalty, and injects the whole-window save or
// restore memory operations (§4.1: "the pipeline delays for 10 cycles...
// load or store instructions are inserted into the pipeline"). Reports
// whether a trap fired.
func (m *Machine) maybeWindowTrap(th *thread, u *uop) bool {
	resident := th.commitDepth - th.winBase + 1
	switch {
	case u.depDelta > 0 && resident > m.nwin:
		// Overflow: save the oldest resident window.
		evict := th.winBase
		th.winBase++
		m.startTrap(th, u)
		for s := 0; s < isa.WindowSlots; s++ {
			th.pendingInject = append(th.pendingInject,
				m.newInjectedUop(th, true, m.winSlotLogical(evict, s),
					m.windowAddr(th, evict)+8*uint64(s)))
		}
		return true

	case u.depDelta < 0 && th.commitDepth < th.winBase:
		// Underflow: restore the departed window from memory.
		th.winBase--
		if th.winBase < 0 {
			//lint:hotalloc run-fatal error construction; executes at most once per run
			m.err = fmt.Errorf("core: register window underflow below frame 0 at pc %#x", u.pc)
			return true
		}
		m.startTrap(th, u)
		for s := 0; s < isa.WindowSlots; s++ {
			th.pendingInject = append(th.pendingInject,
				m.newInjectedUop(th, false, m.winSlotLogical(th.winBase, s),
					m.windowAddr(th, th.winBase)+8*uint64(s)))
		}
		return true
	}
	return false
}

// newInjectedUop builds one pooled window-trap memory operation.
func (m *Machine) newInjectedUop(th *thread, store bool, logical int, addr uint64) *uop {
	m.seq++
	iu := m.newUop()
	iu.seq = m.seq
	iu.thread = th.id
	iu.injected = true
	iu.injStore = store
	iu.injLogical = logical
	iu.injAddr = addr
	iu.destPhys, iu.destPrev = rename.PhysNone, rename.PhysNone
	iu.srcPhys[0], iu.srcPhys[1] = rename.PhysNone, rename.PhysNone
	th.injectedLive++
	return iu
}

// startTrap flushes everything younger than the trapping instruction and
// charges the trap penalty; fetch resumes at the instruction after it once
// the injected operations have renamed.
func (m *Machine) startTrap(th *thread, u *uop) {
	m.stats.WindowTraps++
	m.flushYounger(th, u.seq)
	th.pc = u.actualNPC
	th.fetchBlockedUntil = m.cycle + uint64(m.cfg.TrapPenalty)
}

// cosimCheck steps the golden-model emulator one instruction and compares
// architectural effects. It runs at every committed instruction whenever
// Config.CoSim is set, which DefaultConfig does, so it is part of every
// measured default-configuration run and sits on the per-commit hot path
// (perfbench reports its share of a run as cosim.share). Its only
// allocations are the run-fatal mismatch errors.
func (m *Machine) cosimCheck(th *thread, u *uop) error {
	var info emu.StepInfo
	if err := th.ref.StepInto(&info); err != nil {
		//lint:hotalloc run-fatal error construction; executes at most once per run
		return fmt.Errorf("core: co-sim reference error at cycle %d: %w", m.cycle, err)
	}
	if info.PC != u.pc {
		//lint:hotalloc run-fatal error construction; executes at most once per run
		return fmt.Errorf("core: co-sim PC mismatch at cycle %d: core %#x (%s), ref %#x (%s)",
			m.cycle, u.pc, th.prog.SymbolFor(u.pc), info.PC, th.prog.SymbolFor(info.PC))
	}
	if u.destPhys >= 0 && u.destReg != isa.RegNone {
		got := m.physVal[u.destPhys]
		if info.Dest != u.destReg || info.DestVal != got {
			//lint:hotalloc run-fatal error construction; executes at most once per run
			return fmt.Errorf("core: co-sim dest mismatch at pc %#x (%s): core %v=%#x, ref %v=%#x",
				u.pc, u.inst.DisasmAt(u.pc), u.destReg, got, info.Dest, info.DestVal)
		}
	}
	if u.isStore() {
		if !info.IsStore || info.Addr != u.ea || info.DestVal != u.storeData {
			//lint:hotalloc run-fatal error construction; executes at most once per run
			return fmt.Errorf("core: co-sim store mismatch at pc %#x (%s): core [%#x]=%#x, ref [%#x]=%#x",
				u.pc, u.inst.DisasmAt(u.pc), u.ea, u.storeData, info.Addr, info.DestVal)
		}
	}
	if u.isCtl && info.NextPC != u.actualNPC {
		//lint:hotalloc run-fatal error construction; executes at most once per run
		return fmt.Errorf("core: co-sim control mismatch at pc %#x (%s): core -> %#x, ref -> %#x",
			u.pc, u.inst.DisasmAt(u.pc), u.actualNPC, info.NextPC)
	}
	return nil
}

func f64bits(bits uint64) float64 {
	return mathFloat64frombits(bits)
}
