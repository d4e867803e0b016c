package core

import (
	"vca/internal/isa"
	"vca/internal/rename"
)

// recoverFrom handles a mispredicted control instruction: squash every
// younger instruction of the same thread, repair rename state
// (youngest-first rollback), restore the branch predictor, and redirect
// fetch. VCA machines additionally charge the commit-table walk that
// rebuilds the rename table (§2.1.3).
func (m *Machine) recoverFrom(u *uop) {
	th := m.threads[u.thread]
	// The Pentium-4-style walk (§2.1.3) iterates from the ROB head up to
	// the mispredicted branch, replaying older instructions' renames into
	// the commit-table copy; its cost is the number of older in-flight
	// instructions, and it overlaps the front-end refill.
	walked := 0
	for _, v := range m.rob[m.robHead:] {
		if v.seq >= u.seq {
			break
		}
		walked++
	}
	m.flushYounger(th, u.seq)

	// Front-end repair: restore to the checkpoint and re-apply this
	// instruction's own effect with the now-known outcome.
	switch u.d.Class {
	case isa.ClassBranch:
		m.bp.RecoverCond(th.id, u.ck, u.taken)
	case isa.ClassCall:
		m.bp.Recover(th.id, u.ck)
		m.bp.PushRAS(th.id, u.pc+4)
	case isa.ClassRet:
		m.bp.Recover(th.id, u.ck)
		m.bp.PopRAS(th.id)
	default:
		m.bp.Recover(th.id, u.ck)
	}

	th.pc = u.actualNPC
	th.fetchBlockedUntil = m.cycle + 1
	if m.cfg.RecoveryWalk && walked > 0 {
		walk := uint64((walked + m.cfg.Width - 1) / m.cfg.Width)
		blocked := m.cycle + walk
		if blocked > th.renameBlockedUntil {
			th.renameBlockedUntil = blocked
		}
	}
}

// flushYounger squashes all instructions of thread th younger than seq,
// rolling back rename state youngest-first. It returns the number of
// renamed (ROB-resident) instructions squashed.
func (m *Machine) flushYounger(th *thread, seq uint64) int {
	// Un-renamed instructions in the fetch buffer just disappear (their
	// uops go straight back to the pool: nothing else references them).
	// The live window starts at fetchHead; the kept prefix is compacted to
	// the front so the head index resets.
	keptF := m.fetchQ[:0]
	for _, fe := range m.fetchQ[m.fetchHead:] {
		if fe.u.thread == th.id && fe.u.seq > seq {
			th.inFlight--
			th.inFetchQ--
			m.stats.Squashed++
			m.freeUop(fe.u)
			continue
		}
		keptF = append(keptF, fe)
	}
	m.fetchQ = keptF
	m.fetchHead = 0

	// Collect ROB victims (they are in ascending seq order), compacting
	// the survivors to the front of the backing array.
	victims := m.victimScratch[:0]
	keptR := m.rob[:0]
	for _, v := range m.rob[m.robHead:] {
		if v.thread == th.id && v.seq > seq {
			victims = append(victims, v)
			continue
		}
		keptR = append(keptR, v)
	}
	m.rob = keptR
	m.robHead = 0

	// Roll back youngest-first.
	for i := len(victims) - 1; i >= 0; i-- {
		m.rollbackUop(th, victims[i])
	}

	if len(victims) > 0 {
		m.purgeStructures(th.id, seq)
	}
	th.robCount -= len(victims)
	m.stats.Squashed += uint64(len(victims))
	m.cnt.squashedROB.Add(uint64(len(victims)))

	// Victims are now out of every structure; recycle them. A victim may
	// still sit in writeback's resolved scratch this cycle, which is safe:
	// its squashed flag survives until the pool hands it out again, and no
	// allocation happens before the writeback stage finishes.
	n := len(victims)
	for _, v := range victims {
		m.freeUop(v)
	}
	m.victimScratch = victims[:0]
	return n
}

// rollbackUop undoes one squashed instruction's rename-time state and
// unlinks it from the event-driven scheduler: its consumer-list
// registrations (if still waiting on sources) or its timing-wheel
// bucket (if in flight). Ready-list removal happens in purgeStructures,
// which filters the list once per squash.
func (m *Machine) rollbackUop(th *thread, v *uop) {
	v.squashed = true
	if !v.issued && !v.injected {
		th.inFlight--
	}
	if v.injected {
		// Unreachable in practice (injected operations are always the
		// oldest in-flight work of their thread), but keep the drain
		// counter conservative if that ever changes.
		th.injectedLive--
	}
	if v.inIQ {
		v.inIQ = false
		m.iqCount--
		m.cnt.squashedIQ++
		m.unregisterConsumers(v)
	} else if v.inWheel {
		m.ewheel.remove(v)
	}
	switch m.cfg.Rename {
	case RenameConventional:
		if v.destPhys != rename.PhysNone && v.destPhys >= 0 {
			m.conv.RollbackDest(th.id, v.destLog, v.destPhys, v.destPrev)
		}
	case RenameVCA:
		for i := range v.srcPhys {
			p := v.srcPhys[i]
			if p >= 0 {
				m.vca.ReleaseSource(p)
				m.vca.ReleaseRetired(p)
			}
		}
		if v.destPhys >= 0 {
			m.vca.RollbackDest(v.destAddr, v.destPhys, v.destPrev)
		}
	}
	th.specWBP -= uint64(v.wbpDelta)
	th.specDepth -= int(v.depDelta)
}

// purgeStructures removes squashed uops from the LSQ and the ready
// list (consumer lists and wheel buckets are unlinked per victim in
// rollbackUop).
func (m *Machine) purgeStructures(tid int, seq uint64) {
	// "keep v" means v survives the squash: another thread's uop, or one
	// at or older than the squash point. Written out inline at both
	// filters — a keep closure would capture tid/seq and allocate.
	lsq := m.lsq[:0]
	for _, v := range m.lsq {
		if v.thread != tid || v.seq <= seq {
			lsq = append(lsq, v)
		} else {
			m.threads[v.thread].lsqStores--
		}
	}
	m.lsq = lsq
	ready := m.ready[:0]
	for _, v := range m.ready {
		if v.thread != tid || v.seq <= seq {
			ready = append(ready, v)
		} else {
			v.inReady = false
		}
	}
	m.ready = ready
}
