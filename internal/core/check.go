package core

import (
	"fmt"

	"vca/internal/rename"
)

// This file is the cycle-level invariant checker behind Config.Check:
// after every simulated cycle it re-derives, from first principles, the
// state every structure ought to be in and compares. The checks fall
// into four families (catalogued in docs/VERIFICATION.md):
//
//   - Rename-substrate audits. For VCA, the Figure 2 reference counts
//     are reconstructed from the live ROB (every source read pins its
//     register, every producer pins its destination) and must match the
//     renamer exactly; for every address with in-flight destination
//     renames the rename table must name the youngest of them, so a
//     version an in-flight rename overwrites is never table-named and
//     never an eviction candidate; conservation (free + mapped = all)
//     and table/commit-map consistency come from
//     rename.VCA.CheckInvariants. For the conventional substrate the
//     free-list leak check runs against the ROB's in-flight
//     destinations.
//   - Queue shape. ROB, fetch queue, IQ, LSQ, and ASTQ must be
//     age-ordered (FIFO enqueue stamps for the ASTQ), and the
//     incrementally maintained per-thread occupancy counts (robCount,
//     inFetchQ, lsqStores, inFlight) must equal a fresh scan.
//   - Counter identities. The flow counters registered in counters.go
//     must conserve uops: rename in = commit + squash + resident, for
//     each structure. A counter identity failing means the metrics the
//     experiments consume have silently drifted from the machine.
//   - Memory-system structure. Cache directories may not hold duplicate
//     tags (checked every 1024 cycles — the directories are large and
//     change slowly relative to the queues).
//
// The checker allocates its scratch once, on first use; with
// Config.Check false the only cost is one branch per cycle.

// checker holds the reusable scratch of the invariant checker so the
// per-cycle passes allocate nothing.
type checker struct {
	expectRef []int           // VCA: pins justified by the live ROB
	written   map[uint64]bool // VCA: addresses with a younger in-flight destination rename

	inFlight []int // conventional: live destination registers

	robCount  []int // per-thread reconstructed occupancies
	fetchCnt  []int
	lsqCnt    []int
	nonIssued []int

	// Per-thread age cursor for the ordering checks. A shared queue is
	// age-ordered per thread, not globally: an injected window-trap uop
	// carries a younger seq than another thread's still-unrenamed
	// instructions yet legally renames first.
	lastSeq []uint64
}

func (m *Machine) ensureChecker() *checker {
	if m.chk == nil {
		m.chk = &checker{
			expectRef: make([]int, m.cfg.PhysRegs),
			written:   make(map[uint64]bool),
			robCount:  make([]int, m.cfg.Threads),
			fetchCnt:  make([]int, m.cfg.Threads),
			lsqCnt:    make([]int, m.cfg.Threads),
			nonIssued: make([]int, m.cfg.Threads),
			lastSeq:   make([]uint64, m.cfg.Threads),
		}
	}
	return m.chk
}

// checkCycle runs the end-of-cycle invariant pass and records a
// violation into m.err (Run aborts on it). The cache-directory pass
// runs every 1024 cycles.
func (m *Machine) checkCycle() {
	err := m.checkStructures(true)
	if err == nil && m.cycle&1023 == 0 {
		err = m.hier.CheckInvariants()
	}
	if err != nil {
		m.err = fmt.Errorf("core: invariant violation at cycle %d: %w", m.cycle, err)
	}
}

// CheckNow runs every invariant check immediately and returns the first
// violation. It is safe to call between cycles or after Run returns;
// tests use it to prove deliberately injected corruption is caught.
func (m *Machine) CheckNow() error {
	if err := m.checkStructures(false); err != nil {
		return err
	}
	return m.hier.CheckInvariants()
}

// checkStructures is the per-cycle structural pass. inRun gates the
// checks that only hold at the exact end of a simulated cycle (the
// occupancy-sampling identity).
func (m *Machine) checkStructures(inRun bool) error {
	chk := m.ensureChecker()
	clear(chk.expectRef)
	clear(chk.robCount)
	clear(chk.fetchCnt)
	clear(chk.lsqCnt)
	clear(chk.nonIssued)
	chk.inFlight = chk.inFlight[:0]

	// ROB: age order, per-thread occupancy, rename pins, readiness, and
	// scheduler membership — every ROB resident is exactly one of: in
	// the IQ (validated against the wakeup network), issued and awaiting
	// completion in the timing wheel, or done.
	iqScan, readyScan, wheelScan, sumPending := 0, 0, 0, 0
	clear(chk.lastSeq)
	for _, u := range m.rob[m.robHead:] {
		if u.seq <= chk.lastSeq[u.thread] {
			return fmt.Errorf("rob age order broken: thread %d seq %d after %d", u.thread, u.seq, chk.lastSeq[u.thread])
		}
		chk.lastSeq[u.thread] = u.seq
		chk.robCount[u.thread]++
		if !u.issued && !u.injected {
			chk.nonIssued[u.thread]++
		}
		if u.destPhys >= 0 && !u.done && m.physReady[u.destPhys] {
			return fmt.Errorf("destination p%d of un-executed uop seq %d is marked ready", u.destPhys, u.seq)
		}
		switch {
		case u.inIQ:
			if u.issued {
				return fmt.Errorf("iq resident seq %d is marked issued", u.seq)
			}
			iqScan++
			pend := 0
			for i := range u.srcPhys {
				p := u.srcPhys[i]
				unready := p >= 0 && !m.physReady[p]
				if u.srcWaiting[i] != unready {
					return fmt.Errorf("uop seq %d source %d: srcWaiting=%v but source-unready=%v",
						u.seq, i, u.srcWaiting[i], unready)
				}
				if !u.srcWaiting[i] {
					continue
				}
				pend++
				found := false
				for _, cr := range m.consumers[p] {
					if cr.u == u && int(cr.slot) == i {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("uop seq %d source %d awaits p%d but is not on its consumer list", u.seq, i, p)
				}
			}
			if int(u.pendingSrcs) != pend {
				return fmt.Errorf("uop seq %d pendingSrcs %d, scan finds %d waiting sources", u.seq, u.pendingSrcs, pend)
			}
			sumPending += pend
			if (pend == 0) != u.inReady {
				return fmt.Errorf("uop seq %d: %d pending sources but inReady=%v", u.seq, pend, u.inReady)
			}
			if u.inReady {
				readyScan++
			}
		case !u.issued:
			return fmt.Errorf("rob uop seq %d neither in IQ nor issued", u.seq)
		case !u.done:
			if !u.inWheel {
				return fmt.Errorf("issued uop seq %d awaits completion but is not in the timing wheel", u.seq)
			}
			wheelScan++
		default:
			if u.inWheel {
				return fmt.Errorf("completed uop seq %d still flagged in the timing wheel", u.seq)
			}
		}
		switch m.cfg.Rename {
		case RenameConventional:
			chk.inFlight = append(chk.inFlight, u.destPhys)
		case RenameVCA:
			for i := range u.srcPhys {
				if p := u.srcPhys[i]; p >= 0 {
					chk.expectRef[p]++
				}
			}
			if u.destPhys >= 0 {
				chk.expectRef[u.destPhys]++
				if u.destPrev >= 0 {
					if addr, ok := m.vca.MappedAddr(u.destPrev); !ok || addr != u.destAddr {
						return fmt.Errorf("uop seq %d: previous version p%d of %#x no longer holds it (mapped=%v addr=%#x)",
							u.seq, u.destPrev, u.destAddr, ok, addr)
					}
				}
			}
		}
	}

	// Fetch queue: age order (global — every entry passed through the
	// fetch stage's seq assignment), not yet renamed, per-thread
	// occupancy.
	var lastSeq uint64
	for _, fe := range m.fetchQ[m.fetchHead:] {
		if fe.u.seq <= lastSeq {
			return fmt.Errorf("fetch queue age order broken: seq %d after %d", fe.u.seq, lastSeq)
		}
		lastSeq = fe.u.seq
		chk.fetchCnt[fe.u.thread]++
		if fe.u.destPhys != rename.PhysNone {
			return fmt.Errorf("un-renamed uop seq %d already has destination p%d", fe.u.seq, fe.u.destPhys)
		}
	}

	// Scheduler conservation. The ROB scan derived who must be in the
	// IQ, on the ready list, and in the wheel; the live structures must
	// agree exactly — a leak in any direction (stale consumer entry,
	// missed wakeup, un-drained bucket) breaks a count here.
	if iqScan != m.iqCount {
		return fmt.Errorf("iqCount %d, rob scan finds %d IQ residents", m.iqCount, iqScan)
	}
	var lastStamp uint64
	for i, u := range m.ready {
		if !u.inReady || !u.inIQ || u.issued || u.pendingSrcs != 0 {
			return fmt.Errorf("ready list holds seq %d with inReady=%v inIQ=%v issued=%v pendingSrcs=%d",
				u.seq, u.inReady, u.inIQ, u.issued, u.pendingSrcs)
		}
		if !m.readyDirty && i > 0 && u.stamp <= lastStamp {
			return fmt.Errorf("ready list dispatch order broken: stamp %d after %d", u.stamp, lastStamp)
		}
		lastStamp = u.stamp
	}
	if readyScan != len(m.ready) {
		return fmt.Errorf("%d source-ready IQ residents but ready list holds %d", readyScan, len(m.ready))
	}
	sumCons := 0
	for p, refs := range m.consumers {
		if len(refs) == 0 {
			continue
		}
		if m.physReady[p] {
			return fmt.Errorf("p%d is ready but still has %d registered consumers", p, len(refs))
		}
		sumCons += len(refs)
		for _, cr := range refs {
			if !cr.u.inIQ || !cr.u.srcWaiting[cr.slot] || cr.u.srcPhys[cr.slot] != p {
				return fmt.Errorf("consumer list of p%d holds stale entry (seq %d slot %d)", p, cr.u.seq, cr.slot)
			}
		}
	}
	if sumCons != sumPending {
		return fmt.Errorf("consumer lists hold %d registrations but IQ residents await %d sources", sumCons, sumPending)
	}
	wheelCount := 0
	for b, bucket := range m.ewheel.buckets {
		for _, u := range bucket {
			if !u.issued || u.done || !u.inWheel || u.squashed {
				return fmt.Errorf("wheel bucket holds seq %d with issued=%v done=%v inWheel=%v squashed=%v",
					u.seq, u.issued, u.done, u.inWheel, u.squashed)
			}
			if u.doneAt&m.ewheel.mask != uint64(b) || u.doneAt <= m.cycle {
				return fmt.Errorf("wheel bucket %d holds seq %d with doneAt %d at cycle %d", b, u.seq, u.doneAt, m.cycle)
			}
			wheelCount++
		}
	}
	if wheelCount != m.ewheel.count || wheelCount != wheelScan {
		return fmt.Errorf("timing wheel holds %d entries, count says %d, rob scan finds %d in flight",
			wheelCount, m.ewheel.count, wheelScan)
	}

	// LSQ: age order, stores only, per-thread store counts.
	clear(chk.lastSeq)
	for _, u := range m.lsq {
		if u.seq <= chk.lastSeq[u.thread] {
			return fmt.Errorf("lsq age order broken: thread %d seq %d after %d", u.thread, u.seq, chk.lastSeq[u.thread])
		}
		chk.lastSeq[u.thread] = u.seq
		if !u.isStore() || !u.inLSQ {
			return fmt.Errorf("lsq holds non-store uop seq %d (inLSQ=%v)", u.seq, u.inLSQ)
		}
		chk.lsqCnt[u.thread]++
	}

	// Per-thread incremental bookkeeping vs the fresh scans.
	for _, th := range m.threads {
		t := th.id
		if th.robCount != chk.robCount[t] {
			return fmt.Errorf("thread %d robCount %d, scan finds %d", t, th.robCount, chk.robCount[t])
		}
		if th.inFetchQ != chk.fetchCnt[t] {
			return fmt.Errorf("thread %d inFetchQ %d, scan finds %d", t, th.inFetchQ, chk.fetchCnt[t])
		}
		if th.lsqStores != chk.lsqCnt[t] {
			return fmt.Errorf("thread %d lsqStores %d, scan finds %d", t, th.lsqStores, chk.lsqCnt[t])
		}
		if want := chk.fetchCnt[t] + chk.nonIssued[t]; th.inFlight != want {
			return fmt.Errorf("thread %d ICOUNT inFlight %d, scan finds %d", t, th.inFlight, want)
		}
		if th.done && (th.robCount != 0 || th.inFetchQ != 0 || th.lsqStores != 0 || th.injectPending() != 0) {
			return fmt.Errorf("exited thread %d still owns pipeline state (rob=%d fetch=%d lsq=%d inject=%d)",
				t, th.robCount, th.inFetchQ, th.lsqStores, th.injectPending())
		}
		if m.cfg.Window == WindowConventional {
			resident := th.commitDepth - th.winBase + 1
			if th.winBase < 0 || th.winBase > th.commitDepth || resident > m.nwin {
				return fmt.Errorf("thread %d window residency broken: winBase=%d commitDepth=%d nwin=%d",
					t, th.winBase, th.commitDepth, m.nwin)
			}
			if th.specDepth < 0 {
				return fmt.Errorf("thread %d speculative window depth %d negative", t, th.specDepth)
			}
		}
	}

	// Rename substrate audits.
	switch m.cfg.Rename {
	case RenameConventional:
		if err := m.conv.CheckInvariants(chk.inFlight); err != nil {
			return err
		}
	case RenameVCA:
		if err := m.vca.CheckInvariants(); err != nil {
			return err
		}
		if err := m.vca.AuditPins(chk.expectRef); err != nil {
			return err
		}
		if err := m.checkYoungestWriters(); err != nil {
			return err
		}
		if n := m.vca.PendingRSIDOps(); n != 0 {
			return fmt.Errorf("%d RSID flush operations left undrained", n)
		}
		if err := m.checkASTQ(); err != nil {
			return err
		}
	}

	return m.checkCounterIdentities(inRun)
}

// checkYoungestWriters walks the ROB youngest-first and requires, for
// every address with in-flight VCA destination renames, that the rename
// table names the youngest of them. A destination rename retargets the
// address's entry, and a squash must undo renames youngest-first to
// restore it, so no version an in-flight rename overwrites (destPrev)
// may be table-named.
func (m *Machine) checkYoungestWriters() error {
	written := m.chk.written
	clear(written)
	for i := len(m.rob) - 1; i >= m.robHead; i-- {
		u := m.rob[i]
		if u.destPhys < 0 || written[u.destAddr] {
			continue
		}
		written[u.destAddr] = true
		if !m.vca.StillMapped(u.destAddr, u.destPhys) {
			return fmt.Errorf("uop seq %d: p%d is the youngest in-flight version of %#x, but the rename table does not name it",
				u.seq, u.destPhys, u.destAddr)
		}
	}
	return nil
}

// checkASTQ validates the spill/fill path: FIFO enqueue order, issue
// flags, a sane occupancy bound, and — the cross-layer identity — that
// every spill and fill the renamer ever generated is either already
// issued to the DL1 (astq.*_issued counters) or still waiting in the
// queue. Ideal-window machines apply operations instantly and bypass
// the queue, so the identity does not apply there.
func (m *Machine) checkASTQ() error {
	ideal := m.cfg.Window == WindowIdeal
	var lastEnq uint64
	pendSpills, pendFills := uint64(0), uint64(0)
	for _, e := range m.astq[m.astqHead:] {
		if e.enq <= lastEnq {
			return fmt.Errorf("astq FIFO order broken: enq %d after %d", e.enq, lastEnq)
		}
		lastEnq = e.enq
		if e.issued {
			return fmt.Errorf("astq still holds issued operation (enq %d)", e.enq)
		}
		if e.op.IsSpill {
			pendSpills++
		} else {
			pendFills++
		}
	}
	awCount := 0
	for b, bucket := range m.awheel.buckets {
		for _, e := range bucket {
			if !e.issued {
				return fmt.Errorf("astq timing wheel holds un-issued operation (enq %d)", e.enq)
			}
			if e.doneAt&m.awheel.mask != uint64(b) || e.doneAt <= m.cycle {
				return fmt.Errorf("astq wheel bucket %d holds enq %d with doneAt %d at cycle %d", b, e.enq, e.doneAt, m.cycle)
			}
			awCount++
		}
	}
	if awCount != m.awheel.count {
		return fmt.Errorf("astq timing wheel holds %d entries but count says %d", awCount, m.awheel.count)
	}
	if ideal {
		if m.astqLen() != 0 {
			return fmt.Errorf("ideal-window machine has %d queued ASTQ operations", m.astqLen())
		}
		return nil
	}
	// One rename can overshoot the full-queue check by its own operation
	// burst (at most 8 spills/fills), and RSID-reuse flushes can add a
	// register-count's worth on top; beyond that the queue is runaway.
	if limit := m.cfg.ASTQSize + 8 + int(m.vca.Stats.RSIDFlushRegs); m.astqLen() > limit {
		return fmt.Errorf("astq occupancy %d exceeds plausible bound %d", m.astqLen(), limit)
	}
	vs := &m.vca.Stats
	if vs.Spills != m.stats.SpillsIssued+pendSpills {
		return fmt.Errorf("spill accounting broken: renamer generated %d, %d issued + %d pending",
			vs.Spills, m.stats.SpillsIssued, pendSpills)
	}
	if vs.Fills != m.stats.FillsIssued+pendFills {
		return fmt.Errorf("fill accounting broken: renamer generated %d, %d issued + %d pending",
			vs.Fills, m.stats.FillsIssued, pendFills)
	}
	return nil
}

// checkCounterIdentities closes the uop flow conservation equations over
// the metrics counters: what entered a structure must equal what left it
// plus what is still resident. inRun additionally ties the occupancy
// trackers to the cycle count (they sample exactly once per cycle).
func (m *Machine) checkCounterIdentities(inRun bool) error {
	cnt := &m.cnt
	renamed := cnt.renameUops.Value()
	if got, want := uint64(m.robLen()), renamed-cnt.commitUops.Value()-cnt.squashedROB.Value(); got != want {
		return fmt.Errorf("rob occupancy %d but counters imply %d (renamed %d - committed %d - squashed %d)",
			got, want, renamed, cnt.commitUops.Value(), cnt.squashedROB.Value())
	}
	if got, want := uint64(m.iqCount), renamed-cnt.issueUops.Value()-cnt.squashedIQ.Value(); got != want {
		return fmt.Errorf("iq occupancy %d but counters imply %d (renamed %d - issued %d - purged %d)",
			got, want, renamed, cnt.issueUops.Value(), cnt.squashedIQ.Value())
	}
	fromFetch := renamed - cnt.renameInjected.Value()
	dropped := m.stats.Squashed - cnt.squashedROB.Value()
	if got, want := uint64(len(m.fetchQ)-m.fetchHead), m.stats.Fetched-fromFetch-dropped; got != want {
		return fmt.Errorf("fetch queue occupancy %d but counters imply %d (fetched %d - renamed %d - dropped %d)",
			got, want, m.stats.Fetched, fromFetch, dropped)
	}
	if inRun {
		if got := cnt.iqOcc.Hist.Count.Value(); got != m.cycle {
			return fmt.Errorf("occupancy sampled %d times in %d cycles", got, m.cycle)
		}
	}
	return nil
}
