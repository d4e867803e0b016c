package core

import (
	"vca/internal/isa"
	"vca/internal/rename"
)

// fetchBufCap bounds how far fetch may run ahead of rename: it must cover
// the front-end pipeline (FrontLat stages of Width instructions) plus
// slack, or the front end starves structurally.
func (m *Machine) fetchBufCap() int {
	return m.cfg.Width * (m.cfg.FrontLat + 2)
}

// fetchStage picks one thread per cycle (ICOUNT policy: fewest in-flight
// instructions) and fetches up to Width instructions along the predicted
// path. Instructions arrive at the rename stage FrontLat cycles later
// (+ instruction-cache miss time).
//
//vca:hot
func (m *Machine) fetchStage() {
	th := m.pickFetchThread()
	if th == nil {
		m.noteFetchStall()
		return
	}

	// One IL1 probe per fetch group; misses delay the group's arrival.
	il1 := m.hier.InstFetch(th.cacheAddr(th.pc))
	extra := uint64(0)
	if il1 > m.cfg.Hier.IL1.HitLat {
		extra = uint64(il1 - m.cfg.Hier.IL1.HitLat)
	}
	readyAt := m.cycle + uint64(m.cfg.FrontLat) + extra

	for n := 0; n < m.cfg.Width; n++ {
		if m.fetchBufCount(th) >= m.fetchBufCap() {
			break
		}
		inst, mt := th.instAt(th.pc)
		m.seq++
		u := m.newUop()
		u.seq = m.seq
		u.thread = th.id
		u.fetchedAt = uint32(m.cycle)
		u.pc = th.pc
		u.inst = inst
		u.d = mt
		u.kind = mt.Issue
		u.isCtl = mt.Ctl != isa.CtlNone
		u.destPhys, u.destPrev = rename.PhysNone, rename.PhysNone
		u.srcPhys[0], u.srcPhys[1] = rename.PhysNone, rename.PhysNone

		nextPC := th.pc + 4
		endGroup := false
		if u.isCtl {
			switch mt.Ctl {
			case isa.CtlCond:
				taken, ck := m.bp.PredictCond(th.id, th.pc)
				u.ck = ck
				if taken {
					t, _ := inst.ControlTarget(th.pc)
					nextPC = t
					endGroup = true
				}
			case isa.CtlRet:
				t, ck := m.bp.PredictReturn(th.id, th.pc)
				u.ck = ck
				nextPC = t
				endGroup = true
			case isa.CtlIndirect:
				t, hit, ck := m.bp.PredictIndirect(th.id, th.pc)
				u.ck = ck
				if hit {
					nextPC = t
				} // else guess fall-through; repaired at resolve
				if mt.Call {
					m.bp.PushRAS(th.id, th.pc+4)
				}
				endGroup = true
			default: // direct jmp/jsr
				u.ck = m.bp.CheckpointFor(th.id)
				t, _ := inst.ControlTarget(th.pc)
				nextPC = t
				if mt.Call {
					m.bp.PushRAS(th.id, th.pc+4)
				}
				endGroup = true
			}
		}
		u.predNPC = nextPC

		m.fetchQ = append(m.fetchQ, fetchEntry{u: u, readyAt: readyAt})
		th.inFetchQ++
		th.inFlight++
		m.stats.Fetched++
		th.pc = nextPC
		if endGroup {
			break
		}
	}
}

// instAt reads the predecoded text image and its descriptors, avoiding
// any per-instruction re-derivation on the fetch hot path. Off-text and
// misaligned PCs (wrong path) decode as invalid, matching
// program.InstAt's zero-word semantics; a pc below TextBase wraps to a
// huge index and fails the bound.
func (th *thread) instAt(pc uint64) (isa.Inst, *isa.Meta) {
	if i := pc - th.prog.TextBase; pc%4 == 0 && i < uint64(len(th.text))*4 {
		return th.text[i/4], &th.meta[i/4]
	}
	return invalidInst, &invalidMeta
}

var (
	invalidInst = isa.Decode(0)
	invalidMeta = isa.MetaOf(invalidInst)
)

// pickFetchThread implements ICOUNT: the runnable thread with the fewest
// in-flight instructions fetches.
func (m *Machine) pickFetchThread() *thread {
	var best *thread
	for _, th := range m.threads {
		if th.done || m.cycle < th.fetchBlockedUntil || th.injectPending() > 0 {
			continue
		}
		if m.fetchBufCount(th) >= m.fetchBufCap() {
			continue
		}
		if best == nil || th.inFlight < best.inFlight {
			best = th
		}
	}
	return best
}

// fetchBufCount is the thread's fetch-buffer occupancy, maintained
// incrementally (fetch push, rename pop, squash drop) so the ICOUNT
// policy never scans the queue.
func (m *Machine) fetchBufCount(th *thread) int { return th.inFetchQ }
