package core

import (
	"fmt"

	"vca/internal/isa"
	"vca/internal/program"
	"vca/internal/rename"
)

// renameStage renames up to Width instructions in order: injected window
// trap operations first (per thread), then fetched instructions that have
// traversed the front end. VCA machines additionally respect the rename
// table port budget and the ASTQ write budget (§3), stalling in order when
// either is exhausted.
//
//vca:hot
func (m *Machine) renameStage() {
	// Per-cycle VCA budgets (carrying over any overshoot as debt).
	if m.cfg.Rename == RenameVCA {
		m.portCredit += m.cfg.VCA.Ports
		if m.portCredit > m.cfg.VCA.Ports {
			m.portCredit = m.cfg.VCA.Ports
		}
		m.astqCredit += m.cfg.VCA.ASTQWrites
		if m.astqCredit > m.cfg.VCA.ASTQWrites {
			m.astqCredit = m.cfg.VCA.ASTQWrites
		}
	}

	budget := m.cfg.Width
	renamed := 0

	// Injected window-trap memory operations rename with priority.
	for _, th := range m.threads {
		for budget > 0 && th.injectPending() > 0 {
			u := th.pendingInject[th.injectHead]
			if !m.renameOne(th, u) { // renameOne recorded the stall cause
				return
			}
			th.popInject()
			m.cnt.renameInjected++
			budget--
			renamed++
		}
	}

	for budget > 0 && m.fetchHead < len(m.fetchQ) {
		fe := m.fetchQ[m.fetchHead]
		if fe.readyAt > m.cycle {
			if renamed == 0 {
				m.noteRenameStall(m.threads[fe.u.thread], rsEmpty)
			}
			return
		}
		th := m.threads[fe.u.thread]
		if m.cycle < th.renameBlockedUntil {
			m.noteRenameStall(th, rsWalk)
			return // recovery walk in progress (in-order stall)
		}
		if !m.renameOne(th, fe.u) { // renameOne recorded the stall cause
			m.stats.RenameStallCycles++
			return
		}
		m.popFetchQ(th)
		budget--
		renamed++
	}
	if renamed == 0 && !m.Done() {
		m.noteRenameStall(nil, rsEmpty)
	}
}

// popFetchQ consumes the head fetch-queue entry. The queue is a slice
// with a head index rather than a re-sliced slice so the backing array is
// recycled instead of reallocated; once the consumed prefix dominates,
// the live tail is copied down in place.
func (m *Machine) popFetchQ(th *thread) {
	th.inFetchQ--
	m.fetchHead++
	if m.fetchHead == len(m.fetchQ) {
		m.fetchQ = m.fetchQ[:0]
		m.fetchHead = 0
	} else if m.fetchHead >= 64 && m.fetchHead*2 >= len(m.fetchQ) {
		n := copy(m.fetchQ, m.fetchQ[m.fetchHead:])
		m.fetchQ = m.fetchQ[:n]
		m.fetchHead = 0
	}
}

// renameOne renames and dispatches a single uop. It returns false when a
// structural hazard stalls rename this cycle (the uop stays queued).
func (m *Machine) renameOne(th *thread, u *uop) bool {
	if m.robLen() >= m.cfg.ROBSize {
		m.stats.ROBFullStalls++
		m.noteRenameStall(th, rsROBFull)
		return false
	}
	if m.iqCount >= m.cfg.IQSize {
		m.stats.IQFullStalls++
		m.noteRenameStall(th, rsIQFull)
		return false
	}
	if u.isStore() && m.lsqCount() >= m.cfg.LSQSize {
		m.noteRenameStall(th, rsLSQFull)
		return false
	}

	ok := false
	switch m.cfg.Rename {
	case RenameConventional:
		ok = m.renameConventional(th, u)
		if !ok {
			m.noteRenameStall(th, rsNoPhys)
		}
	case RenameVCA:
		ok = m.renameVCA(th, u) // records its own stall cause
	}
	if !ok {
		return false
	}

	// Window bookkeeping: calls/returns rotate the speculative window
	// after their own operands rename (a return reads its target register
	// in the callee's window).
	if !u.injected {
		switch m.cfg.Window {
		case WindowVCA, WindowIdeal:
			// Clamp rotation to the thread's register space: wrong-path
			// returns at depth zero (or runaway wrong-path recursion)
			// must not escape into another context's backing store.
			delta := u.inst.WindowDelta()
			_, wbpTop := program.ThreadRegSpace(th.id)
			next := th.specWBP + uint64(delta)
			if delta != 0 && next <= wbpTop && next > th.gbp+4096 {
				u.wbpDelta = int32(delta)
				th.specWBP = next
			}
		case WindowConventional:
			switch u.d.Class {
			case isa.ClassCall:
				u.depDelta = 1
			case isa.ClassRet:
				if th.specDepth > 0 {
					u.depDelta = -1
				}
			}
			th.specDepth += int(u.depDelta)
		}
	}

	m.rob = append(m.rob, u)
	th.robCount++
	m.cnt.renameUops++
	u.renamedAt = uint32(m.cycle)
	u.inIQ = true
	m.iqCount++
	if u.isStore() {
		m.lsq = append(m.lsq, u)
		u.inLSQ = true
		th.lsqStores++
	}
	// Wire into the wakeup network last: the rename path above (including
	// applyVCAOps' ideal instant fills) must have finalized source
	// readiness first.
	m.registerDispatch(u)
	return true
}

func (m *Machine) lsqCount() int { return len(m.lsq) }

// renameConventional maps sources through the map table and allocates the
// destination from the free list.
func (m *Machine) renameConventional(th *thread, u *uop) bool {
	if u.injected {
		if u.injStore {
			u.srcPhys[0] = m.conv.Lookup(th.id, u.injLogical)
			return true
		}
		newP, prev, ok := m.conv.AllocateDest(th.id, u.injLogical)
		if !ok {
			return false
		}
		u.destReg = isa.RegNone
		u.destLog = u.injLogical
		u.destPhys, u.destPrev = newP, prev
		m.physReady[newP] = false
		return true
	}

	d := u.d
	if d.RenSrcA != isa.RegNone {
		u.srcPhys[0] = m.conv.Lookup(th.id, m.convLogical(th, m.slot(d, 0, d.RenSrcA)))
	}
	if d.RenSrcB != isa.RegNone {
		u.srcPhys[1] = m.conv.Lookup(th.id, m.convLogical(th, m.slot(d, 1, d.RenSrcB)))
	}
	u.destReg = d.RenDest
	if d.RenDest != isa.RegNone {
		log := m.convLogical(th, m.slot(d, 2, d.RenDest))
		newP, prev, ok := m.conv.AllocateDest(th.id, log)
		if !ok {
			return false
		}
		u.destLog = log
		u.destPhys, u.destPrev = newP, prev
		m.physReady[newP] = false
	}
	return true
}

// slot locates operand k (0 SrcA, 1 SrcB, 2 Dest) of a descriptor,
// renamed register r, in this machine's logical register space: the
// descriptor's window-view slot on a machine with windows, the register
// number on one without.
func (m *Machine) slot(d *isa.Meta, k int, r isa.Reg) isa.RegSlot {
	if m.windows {
		return d.WinSlots[k]
	}
	return isa.RegSlot(r)
}

// convLogical maps a register slot to its conventional logical index at
// the thread's speculative window depth.
func (m *Machine) convLogical(th *thread, s isa.RegSlot) int {
	if s.Win() {
		return m.winSlotLogical(th.specDepth, s.Slot())
	}
	return s.Slot()
}

// renameVCA maps operands through the tagged rename table, generating
// spills and fills (§2.1.1). Ideal-window machines apply the generated
// operations instantaneously and for free.
func (m *Machine) renameVCA(th *thread, u *uop) bool {
	ideal := m.cfg.Window == WindowIdeal

	if !ideal {
		if m.astqCredit <= 0 {
			m.noteRenameStall(th, rsVCAASTQ)
			return false
		}
		if m.portCredit <= 0 {
			m.noteRenameStall(th, rsVCAPorts)
			return false
		}
		if m.astqLen() >= m.cfg.ASTQSize {
			m.noteRenameStall(th, rsVCAASTQ)
			return false
		}
	}

	// Repeated registers combine into one lookup/port; the descriptor
	// counted the distinct ones when the program was predecoded.
	d := u.d
	lookups := int(d.Lookups)
	if !ideal && m.portCredit < lookups {
		m.noteRenameStall(th, rsVCAPorts)
		return false
	}

	ops := m.opsScratch[:0]
	npinned := 0
	if d.RenSrcA != isa.RegNone {
		phys, _, ok := m.vca.RenameSource(th.regAddr(m.slot(d, 0, d.RenSrcA)), &ops)
		if !ok {
			return m.stallVCA(th, u, ops, 0, ideal)
		}
		u.srcPhys[0] = phys
		npinned++
	}
	if d.RenSrcB != isa.RegNone {
		phys, _, ok := m.vca.RenameSource(th.regAddr(m.slot(d, 1, d.RenSrcB)), &ops)
		if !ok {
			return m.stallVCA(th, u, ops, npinned, ideal)
		}
		u.srcPhys[1] = phys
	}

	u.destReg = d.RenDest
	if d.RenDest != isa.RegNone {
		addr := th.regAddr(m.slot(d, 2, d.RenDest))
		newP, prev, ok := m.vca.RenameDest(addr, &ops)
		if !ok {
			return m.stallVCA(th, u, ops, 2, ideal)
		}
		u.destAddr = addr
		u.destPhys, u.destPrev = newP, prev
		m.physReady[newP] = false
	}

	m.portCredit -= lookups
	m.astqCredit -= len(ops)
	m.applyVCAOps(th, ops, ideal)
	m.opsScratch = ops[:0]
	return true
}

// stallVCA abandons a VCA rename that stalled on the rename table after
// renaming the uop's first n source slots: it records the stall, undoes
// the source pins, and applies the memory operations the evictions so far
// generated (they already happened). It returns false for the caller to
// pass on.
func (m *Machine) stallVCA(th *thread, u *uop, ops []rename.MemOp, n int, ideal bool) bool {
	m.noteRenameStall(th, rsVCATable)
	for i := 0; i < n; i++ {
		if p := u.srcPhys[i]; p != rename.PhysNone {
			m.vca.ReleaseSource(p)
			m.vca.ReleaseRetired(p)
		}
	}
	m.applyVCAOps(th, ops, ideal)
	m.opsScratch = ops[:0]
	return false
}

// applyVCAOps routes renamer-generated spills and fills either to the
// ASTQ (normal VCA) or applies them instantly (ideal windows). Each
// operation belongs to the thread that owns the logical register address —
// an eviction during thread A's rename may spill thread B's register,
// which must land in B's backing store.
func (m *Machine) applyVCAOps(th *thread, ops []rename.MemOp, ideal bool) {
	ops = append(ops, m.vca.DrainRSIDOps()...)
	for _, op := range ops {
		owner := m.ownerOf(op.Addr)
		if ideal {
			if op.IsSpill {
				owner.mem.Write(op.Addr, 8, op.Value)
			} else {
				m.physVal[op.Phys] = owner.mem.Read(op.Addr, 8)
				m.physReady[op.Phys] = true
				m.wakeConsumers(op.Phys)
			}
			continue
		}
		if !op.IsSpill {
			m.physReady[op.Phys] = false
		}
		m.astqSeq++
		m.astq = append(m.astq, astqEntry{op: op, thread: owner.id, enq: m.astqSeq})
	}
}

// ownerOf maps a logical-register backing address to its thread context.
func (m *Machine) ownerOf(addr uint64) *thread {
	t := int((addr - program.RegSpaceBase) / program.RegSpaceStride)
	if t < 0 || t >= len(m.threads) {
		panic(fmt.Sprintf("core: register address %#x belongs to no thread", addr))
	}
	return m.threads[t]
}
