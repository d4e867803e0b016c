package core

import (
	"vca/internal/rename"
)

// This file implements dependence-driven wakeup. At dispatch each uop
// registers on the consumer list of every source physical register that
// is not yet ready, with a pending-source count; when writeback (or an
// ASTQ fill, or an ideal instant fill) flips physReady, the producer's
// consumer list is drained, counts decrement, and uops reaching zero
// move to the ready list. The issue stage selects from the ready list
// only — never re-polling the whole IQ.
//
// Selection order must match the old IQ scan exactly: the IQ was kept
// in rename (dispatch) order, which is NOT seq order — injected
// window-trap uops carry fresh, larger seqs yet rename before the
// trapping instruction. The ready list therefore orders by a dispatch
// serial (uop.stamp) rather than seq.
//
// Consumer-list lifetime: a registration lives only while the consumer
// sits unissued in the IQ. Squash removes it (unregisterConsumers), so
// a list never holds a freed uop: any consumer of a squashed producer
// is a younger uop of the same thread and thus itself a squash victim
// that self-unregisters first. Conversely a physical register with live
// consumers is pinned by the rename substrate (its mapping is
// referenced), so it cannot be recycled under its waiters.

// consRef is one consumer-list entry: a waiting uop and which of its
// source slots awaits this register.
type consRef struct {
	u    *uop
	slot uint8
}

// registerDispatch wires a freshly renamed uop into the wakeup network.
// Must run after the uop's sources are final — in particular after
// applyVCAOps, whose ideal-mode fills can make a source ready in the
// same cycle it was renamed.
func (m *Machine) registerDispatch(u *uop) {
	u.stamp = m.dispatchSeq
	m.dispatchSeq++
	for i := range u.srcPhys {
		p := u.srcPhys[i]
		if p == rename.PhysNone || m.physReady[p] {
			continue
		}
		m.consumers[p] = append(m.consumers[p], consRef{u: u, slot: uint8(i)})
		u.srcWaiting[i] = true
		u.pendingSrcs++
	}
	if u.pendingSrcs == 0 {
		m.pushReady(u)
	}
}

// pushReady appends a now-source-ready uop to the ready list, flagging
// a sort if it lands out of dispatch order (wakeups fire in producer
// completion order, not consumer age order).
func (m *Machine) pushReady(u *uop) {
	if n := len(m.ready); n > 0 && m.ready[n-1].stamp > u.stamp {
		m.readyDirty = true
	}
	u.inReady = true
	m.ready = append(m.ready, u)
}

// sortReady restores dispatch-order selection before the issue stage
// scans the ready list. The list is nearly sorted (wakeups land a few
// positions out of place), so a direct insertion sort beats a general
// comparator sort: no function-pointer calls, and the common all-sorted
// prefix costs one compare per element.
func (m *Machine) sortReady() {
	if !m.readyDirty {
		return
	}
	m.readyDirty = false
	rs := m.ready
	for i := 1; i < len(rs); i++ {
		u := rs[i]
		j := i - 1
		for j >= 0 && rs[j].stamp > u.stamp {
			rs[j+1] = rs[j]
			j--
		}
		rs[j+1] = u
	}
}

// wakeConsumers drains the consumer list of a physical register that
// just became ready. Callers flip m.physReady[p] first.
func (m *Machine) wakeConsumers(p int) {
	refs := m.consumers[p]
	if len(refs) == 0 {
		return
	}
	for _, cr := range refs {
		cr.u.srcWaiting[cr.slot] = false
		cr.u.pendingSrcs--
		if cr.u.pendingSrcs == 0 {
			m.pushReady(cr.u)
		}
	}
	m.consumers[p] = refs[:0]
}

// unregisterConsumers removes a squashed, not-yet-ready uop's live
// consumer-list registrations.
func (m *Machine) unregisterConsumers(u *uop) {
	if u.pendingSrcs == 0 {
		return
	}
	for i := range u.srcPhys {
		if !u.srcWaiting[i] {
			continue
		}
		refs := m.consumers[u.srcPhys[i]]
		for j, cr := range refs {
			if cr.u == u && int(cr.slot) == i {
				m.consumers[u.srcPhys[i]] = append(refs[:j], refs[j+1:]...)
				break
			}
		}
		u.srcWaiting[i] = false
	}
	u.pendingSrcs = 0
}
