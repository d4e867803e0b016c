package core

import "vca/internal/isa"

// This file implements the quiesced-cycle skip: when no pipeline stage
// can act until the next scheduled event (typical while the whole
// window waits on an L2 or memory miss), the machine advances directly
// to the cycle before that event, bulk-accounting every per-cycle
// counter and occupancy sample the polled loop would have produced.
// The skip is a pure execution-time optimization — simulated behavior,
// every counter, and every histogram stay bit-identical — so it
// refuses to fire on anything it cannot prove frozen and falls back to
// per-cycle evaluation.
//
// A cycle is "frozen" when every stage's evaluation is a pure function
// of state no stage changes:
//   - commit:    ROB empty, head not done, or head a done store with no
//                DL1 ports configured — nothing retires, one stall
//                cause per cycle.
//   - writeback: no wheel bucket fires (bounds the skip by the wheels'
//                next event).
//   - issue:     every ready uop is denied by the same frozen evidence
//                (zero-FU class, zero DL1 ports, or a load blocked by
//                the frozen LSQ); nothing changes width or ports.
//   - rename:    the fetch-queue head is not yet ready, a recovery walk
//                is in progress, or a structural hazard holds (ROB/IQ/
//                LSQ full — queues only commit/issue/squash can drain).
//                Anything deeper (substrate rename) has side effects
//                and is never dry-run: the skip just declines.
//   - fetch:     every live thread is redirect-blocked (bounds the skip
//                by its unblock cycle) or fetch-buffer-full.
//
// Within such a window every cycle produces the identical stall-cause
// increments and occupancy samples, so k cycles fold into one O(1)
// bulk update per counter (plus a closed-form fixpoint for the VCA
// rename credit top-up, which runs even in stalled cycles).

// quiesceSkip runs at the end of the main loop body, after the cycle's
// stages and checks. If the machine is provably frozen until event
// cycle E > cycle+1, it advances m.cycle to E-1 (the loop's increment
// then lands on E) and bulk-accounts the skipped cycles.
func (m *Machine) quiesceSkip() {
	if m.noSkip || m.cfg.ChromeTrace != nil {
		return
	}
	now := m.cycle
	bound := m.cfg.MaxCycles + 1 // skipping to here reproduces the hang path

	// Commit: anything retirable at the head means activity.
	var head *uop
	if m.robLen() > 0 {
		head = m.rob[m.robHead]
		if head.done && (!head.isStore() || m.cfg.Hier.DL1Ports > 0) {
			return
		}
	}

	// Rename. Injected window-trap operations rename with priority and
	// reach the substrate (side effects) — never skip over them.
	for _, th := range m.threads {
		if th.injectPending() > 0 {
			return
		}
	}
	renameCause := rsEmpty
	renameStructural := false
	if m.fetchHead < len(m.fetchQ) {
		fe := m.fetchQ[m.fetchHead]
		th := m.threads[fe.u.thread]
		switch {
		case fe.readyAt > now+1:
			// Front-end latency: stalls as "empty" until readyAt. The
			// bound keeps the window cause-homogeneous (a recovery walk
			// outlasting readyAt would change the attribution).
			renameCause = rsEmpty
			if fe.readyAt < bound {
				bound = fe.readyAt
			}
		case th.renameBlockedUntil > now+1:
			renameCause = rsWalk
			if th.renameBlockedUntil < bound {
				bound = th.renameBlockedUntil
			}
		case m.robLen() >= m.cfg.ROBSize:
			renameCause, renameStructural = rsROBFull, true
		case m.iqCount >= m.cfg.IQSize:
			renameCause, renameStructural = rsIQFull, true
		case fe.u.isStore() && m.lsqCount() >= m.cfg.LSQSize:
			renameCause, renameStructural = rsLSQFull, true
		default:
			return // head would reach the substrate: simulate the cycle
		}
	}

	// Fetch: a single fetchable thread means activity. Every blocked
	// thread bounds the window so the stall attribution stays constant.
	anyBlocked := false
	for _, th := range m.threads {
		if th.done {
			continue
		}
		if th.fetchBlockedUntil > now+1 {
			anyBlocked = true
			if th.fetchBlockedUntil < bound {
				bound = th.fetchBlockedUntil
			}
		} else if th.inFetchQ < m.fetchBufCap() {
			return
		}
	}
	fetchCause := fsBufFull
	if anyBlocked {
		fetchCause = fsBlocked
	}

	// Issue: every ready uop must be provably denied. In a frozen cycle
	// nothing issues, so the width budget never cuts the scan short and
	// all ready uops contribute stall evidence — same as the live stage.
	fuSat, dl1Denied := false, false
	var nBlockedLoads uint64
	for _, u := range m.ready {
		switch u.kind {
		case isa.IssueLoad:
			if m.cfg.Hier.DL1Ports == 0 {
				dl1Denied = true
			} else if m.loadWouldBlock(u) {
				nBlockedLoads++ // re-attempts (and counts) every cycle
			} else {
				return
			}
		case isa.IssueStore:
			return // stores always issue
		case isa.IssueMulDiv:
			if m.cfg.IntMulDivs > 0 {
				return
			}
			fuSat = true
		case isa.IssueFP:
			if m.cfg.FPUs > 0 {
				return
			}
			fuSat = true
		default:
			if m.cfg.IntALUs > 0 {
				return
			}
			fuSat = true
		}
	}
	if m.astqLen() > 0 && m.cfg.Hier.DL1Ports > 0 {
		return // leftover ports drain the ASTQ
	}

	// Writeback: bound by the wheels' earliest completion.
	if e, ok := m.ewheel.nextEvent(now+1, bound); ok {
		bound = e
	}
	if e, ok := m.awheel.nextEvent(now+1, bound); ok {
		bound = e
	}

	if bound <= now+1 {
		return // next event is the very next cycle: nothing to skip
	}
	k := bound - 1 - now

	// Bulk accounting: k frozen cycles, each with identical increments.
	cnt := &m.cnt
	if head != nil {
		if !head.done {
			cnt.commitStall[commitStallCause(head)].Add(k)
		} else {
			cnt.commitStall[csStorePort].Add(k)
		}
	}
	if m.iqCount > 0 && len(m.ready) == 0 {
		cnt.issueNoReady.Add(k)
	}
	if fuSat {
		cnt.issueFUSat.Add(k)
	}
	if dl1Denied {
		cnt.issueDL1Ports.Add(k)
	}
	if nBlockedLoads > 0 {
		cnt.loadOrderBlocked.Add(nBlockedLoads * k)
	}
	cnt.renameStall[renameCause].Add(k)
	if renameStructural {
		m.stats.RenameStallCycles += k
		switch renameCause {
		case rsROBFull:
			m.stats.ROBFullStalls += k
		case rsIQFull:
			m.stats.IQFullStalls += k
		}
	}
	if m.cfg.Rename == RenameVCA {
		// The per-cycle credit top-up runs even in stalled cycles;
		// replay it in closed form (it reaches a fixpoint quickly).
		m.portCredit = creditAfter(m.portCredit, m.cfg.VCA.Ports, k)
		m.astqCredit = creditAfter(m.astqCredit, m.cfg.VCA.ASTQWrites, k)
	}
	cnt.fetchStall[fetchCause].Add(k)
	for _, th := range m.threads {
		cnt.robOcc[th.id].ObserveN(uint64(th.robCount), k)
		cnt.lsqOcc[th.id].ObserveN(uint64(th.lsqStores), k)
	}
	cnt.iqOcc.ObserveN(uint64(m.iqCount), k)
	cnt.astqOcc.ObserveN(uint64(m.astqLen()), k)

	m.cycle += k
	if m.cfg.Check {
		m.checkCycle()
	}
}

// loadWouldBlock mirrors tryIssueLoad's memory-ordering walk with zero
// side effects: no port consumed, no cache access, no counter bumped.
func (m *Machine) loadWouldBlock(u *uop) bool {
	if u.injected || m.threads[u.thread].lsqStores == 0 {
		return false
	}
	ea := u.inst.MemEA(m.readSrc(u, 0))
	size := int(u.d.MemBytes)
	for _, s := range m.lsq {
		if s.thread != u.thread || s.seq >= u.seq {
			continue
		}
		if !s.issued {
			return true // unresolved older store address
		}
		sEnd, lEnd := s.ea+uint64(s.memBytes), ea+uint64(size)
		if s.ea < lEnd && ea < sEnd && !(s.ea <= ea && lEnd <= sEnd) {
			return true // partial overlap
		}
	}
	return false
}

// creditAfter applies k iterations of the per-cycle VCA credit top-up
// (credit += cap, clamped to cap — debt from multi-op instructions
// pays off over several cycles). It fixpoints within |debt|/cap + 1
// steps, so the loop is O(1) regardless of k.
func creditAfter(credit, cap int, k uint64) int {
	for i := uint64(0); i < k; i++ {
		next := credit + cap
		if next > cap {
			next = cap
		}
		if next == credit {
			break
		}
		credit = next
	}
	return credit
}
