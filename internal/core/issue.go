package core

import (
	"cmp"
	"slices"

	"vca/internal/isa"
	"vca/internal/mem"
)

// issueStage selects ready instructions from the ready list in age
// (dispatch) order, subject to functional-unit and data-cache-port
// limits, and executes them (the simulator computes values at issue;
// completion is signaled after the operation's latency by the writeback
// stage). Leftover data-cache ports issue the head of the ASTQ (§2.2.2).
//
// The ready list holds exactly the IQ residents with all sources ready
// (the wakeup network's invariant), so the old full-IQ scan's stall
// evidence falls out directly: issueNoReady is "IQ non-empty and ready
// list empty" — the width cutoff cannot hide the first ready uop, since
// width only decrements when something (necessarily ready) issues.
//
//vca:hot
func (m *Machine) issueStage() {
	intALU := m.cfg.IntALUs
	mulDiv := m.cfg.IntMulDivs
	fpu := m.cfg.FPUs
	width := m.cfg.Width

	// Per-cycle stall evidence: whether a ready instruction was denied a
	// functional unit or a DL1 port (several causes may fire in one
	// cycle).
	anyReady := len(m.ready) > 0
	fuSat := false
	dl1Denied := false

	m.sortReady()
	kept := m.ready[:0]
	for idx, u := range m.ready {
		if width == 0 {
			// Issue bandwidth exhausted: nothing younger can issue either,
			// so keep the rest of the list wholesale (kept trails idx, so
			// the overlapping copy is safe).
			kept = append(kept, m.ready[idx:]...)
			break
		}
		issued := false
		switch u.kind {
		case isa.IssueLoad:
			if m.dl1Ports == 0 {
				dl1Denied = true
			} else {
				issued = m.tryIssueLoad(u)
			}
		case isa.IssueStore:
			issued = m.tryIssueStore(u)
		case isa.IssueMulDiv:
			if mulDiv > 0 {
				mulDiv--
				m.execute(u)
				issued = true
			} else {
				fuSat = true
			}
		case isa.IssueFP:
			if fpu > 0 {
				fpu--
				m.execute(u)
				issued = true
			} else {
				fuSat = true
			}
		default: // integer ALU, control, syscall, invalid
			if intALU > 0 {
				intALU--
				m.execute(u)
				issued = true
			} else {
				fuSat = true
			}
		}
		if issued {
			width--
			u.issued = true
			u.issuedAt = uint32(m.cycle)
			m.cnt.issueUops++
			u.inIQ = false
			u.inReady = false
			m.iqCount--
			if !u.injected {
				m.threads[u.thread].inFlight--
			}
			m.ewheel.insert(u, m.cycle)
		} else {
			kept = append(kept, u)
		}
	}
	m.ready = kept

	if m.iqCount > 0 && !anyReady {
		m.cnt.issueNoReady++
	}
	if fuSat {
		m.cnt.issueFUSat++
	}
	if dl1Denied {
		m.cnt.issueDL1Ports++
	}

	// ASTQ: spill/fill operations use leftover memory ports, in FIFO
	// order.
	for m.dl1Ports > 0 && m.astqLen() > 0 {
		e := m.astq[m.astqHead]
		m.popASTQ()
		m.dl1Ports--
		th := m.threads[e.thread]
		lat := m.hier.DataAccess(th.cacheAddr(e.op.Addr), e.op.IsSpill, mem.CauseSpillFill)
		if e.op.IsSpill {
			th.mem.Write(e.op.Addr, 8, e.op.Value)
			m.stats.SpillsIssued++
		} else {
			m.stats.FillsIssued++
		}
		e.issued = true
		e.doneAt = m.cycle + uint64(lat)
		if m.cfg.ChromeTrace != nil {
			m.chromeASTQ(e, m.cycle)
		}
		m.awheel.insert(e, m.cycle)
	}
}

// tryIssueLoad issues a load if memory ordering allows: every older store
// of the same thread must have a resolved address (conservative
// disambiguation); an exact-covering older store forwards its data.
// Injected window-trap loads address the register backing store, which
// program stores never alias, so they skip the ordering check. The caller
// has already checked DL1 port availability.
func (m *Machine) tryIssueLoad(u *uop) bool {
	var ea uint64
	var size int
	if u.injected {
		ea, size = u.injAddr, 8
	} else {
		ea, size = u.inst.MemEA(m.readSrc(u, 0)), int(u.d.MemBytes)
	}

	var fwd *uop
	if !u.injected && m.threads[u.thread].lsqStores > 0 {
		// The walk only matters when this thread has stores in flight; the
		// per-thread count lets store-free stretches skip it entirely.
		for _, s := range m.lsq {
			if s.thread != u.thread || s.seq >= u.seq {
				continue
			}
			if !s.issued {
				m.cnt.loadOrderBlocked++
				return false // unresolved older store address
			}
			// Resolved: check overlap.
			sEnd, lEnd := s.ea+uint64(s.memBytes), ea+uint64(size)
			if s.ea < lEnd && ea < sEnd {
				if s.ea <= ea && lEnd <= sEnd {
					fwd = s // youngest covering store wins (keep scanning)
				} else {
					m.cnt.loadOrderBlocked++
					return false // partial overlap: wait for the store to commit
				}
			}
		}
	}

	m.dl1Ports--
	th := m.threads[u.thread]
	u.ea, u.memBytes = ea, size
	lat := m.hier.DataAccess(th.cacheAddr(ea), false, u.cause())
	var raw uint64
	if fwd != nil {
		raw = fwd.storeData >> (8 * (ea - fwd.ea))
		if size < 8 {
			raw &= 1<<(8*size) - 1
		}
	} else {
		raw = th.mem.Read(ea, size)
	}
	if !u.injected && u.d.MemSigned {
		raw = uint64(int64(int32(raw)))
	}
	u.result = raw
	u.doneAt = m.cycle + 1 + uint64(lat)
	return true
}

func (u *uop) cause() mem.AccessCause {
	if u.injected {
		return mem.CauseWindowTrap
	}
	return mem.CauseProgram
}

// tryIssueStore resolves a store's address and captures its data; the
// cache write happens at commit.
func (m *Machine) tryIssueStore(u *uop) bool {
	if u.injected {
		u.ea, u.memBytes = u.injAddr, 8
		u.storeData = m.readSrc(u, 0)
	} else {
		u.ea = u.inst.MemEA(m.readSrc(u, 0))
		u.memBytes = int(u.d.MemBytes)
		u.storeData = m.readSrc(u, 1)
		if u.memBytes < 8 {
			u.storeData &= 1<<(8*u.memBytes) - 1
		}
	}
	u.doneAt = m.cycle + 1
	return true
}

// execute computes a non-memory uop's result and schedules completion.
func (m *Machine) execute(u *uop) {
	d := u.d
	a := m.readSrc(u, 0)
	b := m.readSrc(u, 1)
	if d.HasImm {
		b = d.ImmOperand()
	}
	u.doneAt = m.cycle + uint64(d.Lat)

	switch d.Class {
	case isa.ClassBranch:
		u.taken = isa.BranchTaken(u.inst.Op, a)
		if u.taken {
			u.actualNPC, _ = u.inst.ControlTarget(u.pc)
		} else {
			u.actualNPC = u.pc + 4
		}
	case isa.ClassJump:
		u.taken = true
		if u.inst.Op == isa.OpJmp {
			u.actualNPC, _ = u.inst.ControlTarget(u.pc)
		} else {
			u.actualNPC = a
		}
	case isa.ClassCall:
		u.taken = true
		u.result = u.pc + 4 // ra
		if u.inst.Op == isa.OpJsr {
			u.actualNPC, _ = u.inst.ControlTarget(u.pc)
		} else {
			u.actualNPC = a
		}
	case isa.ClassRet:
		u.taken = true
		u.actualNPC = a
	case isa.ClassSyscall:
		u.sysVals[0], u.sysVals[1] = a, b
	case isa.ClassInvalid:
		// Wrong-path garbage; completes as a no-op and is squashed
		// before commit (commit errors out otherwise).
	default:
		u.result = isa.EvalALU(u.inst.Op, a, b)
	}
}

// writebackStage completes executions and ASTQ operations whose latency
// has elapsed: destination registers become ready, dependents wake onto
// the ready list, and control instructions resolve (possibly triggering
// recovery). The timing wheels hand over exactly this cycle's bucket;
// nothing else in flight is touched.
//
//vca:hot
func (m *Machine) writebackStage() {
	resolved := m.resolvedScratch[:0]
	for _, u := range m.ewheel.take(m.cycle) {
		u.inWheel = false
		u.done = true
		if u.destPhys >= 0 {
			m.physVal[u.destPhys] = u.result
			m.physReady[u.destPhys] = true
			m.wakeConsumers(u.destPhys)
		}
		if u.isCtl {
			resolved = append(resolved, u)
		}
	}

	// Resolve oldest-first; a recovery may squash younger branches that
	// resolved in the same cycle — they must then be ignored.
	sortBySeq(resolved)
	for _, u := range resolved {
		if !u.squashed {
			m.resolveControl(u)
		}
	}
	m.resolvedScratch = resolved[:0]

	for _, e := range m.awheel.take(m.cycle) {
		if !e.op.IsSpill {
			// Fill completes: deliver the value unless the register was
			// recycled after its consumers were squashed.
			if m.vca.FillLive(e.op.Addr, e.op.Phys) {
				th := m.threads[e.thread]
				m.physVal[e.op.Phys] = th.mem.Read(e.op.Addr, 8)
				m.physReady[e.op.Phys] = true
				m.wakeConsumers(e.op.Phys)
			}
		}
	}
}

func sortBySeq(us []*uop) {
	slices.SortFunc(us, func(a, b *uop) int { return cmp.Compare(a.seq, b.seq) })
}

// resolveControl trains the predictor and recovers from mispredictions.
func (m *Machine) resolveControl(u *uop) {
	mispred := u.actualNPC != u.predNPC
	if ctl := u.d.Ctl; ctl == isa.CtlCond {
		m.bp.ResolveCond(u.pc, u.ck, u.taken, mispred)
	} else if ctl == isa.CtlIndirect || ctl == isa.CtlRet {
		m.bp.UpdateBTB(u.pc, u.actualNPC)
	}
	if mispred {
		m.stats.Mispredicts++
		m.recoverFrom(u)
	}
}
