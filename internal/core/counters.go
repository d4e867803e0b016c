package core

import (
	"fmt"

	"vca/internal/metrics"
)

// This file is the core's observability surface: the stall-cause
// taxonomy for each pipeline stage, the per-thread queue occupancy
// trackers, and the registration of every counter into the machine's
// metrics.Registry. Counters are plain struct fields bumped inline on
// the hot path; the registry is only consulted at construction and
// export time. The full name/unit catalogue is docs/OBSERVABILITY.md.

// fetchStall classifies cycles in which the fetch stage picked no
// thread. When several threads are held for different reasons in the
// same cycle, the cause is attributed with the priority threads_done >
// inject_pending > blocked > buffer_full (documented in
// docs/OBSERVABILITY.md).
type fetchStall uint8

const (
	fsThreadsDone fetchStall = iota // every thread has exited
	fsInject                        // window-trap operations await rename
	fsBlocked                       // trap penalty or misprediction redirect
	fsBufFull                       // fetch buffer at capacity
	numFetchStalls
)

func (c fetchStall) String() string {
	switch c {
	case fsThreadsDone:
		return "threads_done"
	case fsInject:
		return "inject_pending"
	case fsBlocked:
		return "blocked"
	case fsBufFull:
		return "buffer_full"
	}
	return "?"
}

// renameStall classifies rename-stage stalls: the in-order stage found
// work but could not rename its head this cycle. At most one cause
// fires per cycle (the stage stops at the first blocked uop).
type renameStall uint8

const (
	rsROBFull  renameStall = iota // reorder buffer at capacity
	rsIQFull                      // instruction queue at capacity
	rsLSQFull                     // store queue at capacity
	rsNoPhys                      // conventional free list empty
	rsVCAPorts                    // VCA rename-table port credit exhausted
	rsVCAASTQ                     // ASTQ full or write credit exhausted
	rsVCATable                    // VCA: no evictable register or table way
	rsWalk                        // misprediction recovery walk in progress
	rsEmpty                       // nothing ready from the front end
	numRenameStalls
)

func (c renameStall) String() string {
	switch c {
	case rsROBFull:
		return "rob_full"
	case rsIQFull:
		return "iq_full"
	case rsLSQFull:
		return "lsq_full"
	case rsNoPhys:
		return "no_phys"
	case rsVCAPorts:
		return "vca_ports"
	case rsVCAASTQ:
		return "vca_astq"
	case rsVCATable:
		return "vca_table"
	case rsWalk:
		return "walk"
	case rsEmpty:
		return "empty"
	}
	return "?"
}

// commitStall classifies cycles in which the commit stage retired
// nothing while the ROB was non-empty, by what the ROB head was doing.
type commitStall uint8

const (
	csHeadLoad  commitStall = iota // head is a load awaiting data
	csHeadStore                    // head is a store awaiting address/data
	csHeadExec                     // head is non-memory work in flight
	csStorePort                    // head store is done but no DL1 port remains
	numCommitStalls
)

func (c commitStall) String() string {
	switch c {
	case csHeadLoad:
		return "head_load"
	case csHeadStore:
		return "head_store"
	case csHeadExec:
		return "head_exec"
	case csStorePort:
		return "store_port"
	}
	return "?"
}

// coreCounters aggregates the always-on pipeline event counters. They
// are separate from Stats (the legacy experiment aggregates) but share
// storage with it where the two overlap, via pointer registration.
type coreCounters struct {
	fetchStall  [numFetchStalls]metrics.Counter
	renameUops  metrics.Counter
	renameStall [numRenameStalls]metrics.Counter
	issueUops   metrics.Counter

	// Issue-stage cycle counters. Unlike rename, several causes can
	// hold different instructions in the same cycle, so these are not
	// mutually exclusive: each counts cycles in which that condition
	// denied at least one otherwise-issuable instruction.
	issueNoReady  metrics.Counter // IQ non-empty, nothing had ready sources
	issueFUSat    metrics.Counter // a ready uop was denied a functional unit
	issueDL1Ports metrics.Counter // a ready memory op was denied a cache port

	loadOrderBlocked metrics.Counter // events: load held behind an older store

	commitStall [numCommitStalls]metrics.Counter

	// Flow-conservation counters. Together with renameUops and issueUops
	// they close the queue-accounting identities the invariant checker
	// asserts every cycle (docs/VERIFICATION.md): every uop that enters a
	// structure is accounted for when it leaves.
	commitUops     metrics.Counter // uops retired from the ROB (injected included)
	squashedROB    metrics.Counter // renamed uops squashed out of the ROB
	squashedIQ     metrics.Counter // un-issued uops purged from the IQ by squashes
	renameInjected metrics.Counter // injected window-trap operations renamed

	robOcc  []metrics.Occupancy // per thread
	lsqOcc  []metrics.Occupancy // per thread
	iqOcc   metrics.Occupancy   // shared
	astqOcc metrics.Occupancy   // shared
}

// registerMetrics builds the machine's registry: core counters,
// occupancy trackers, and the counters owned by the rename, memory, and
// branch substrates. Call once from New, after those substrates exist.
func (m *Machine) registerMetrics() {
	reg := m.metrics
	cnt := &m.cnt

	c := func(name, unit, desc string, p *metrics.Counter) { reg.RegisterCounter(name, unit, desc, p) }
	legacy := func(name, unit, desc string, p *uint64) { reg.RegisterCounter(name, unit, desc, (*metrics.Counter)(p)) }

	legacy("core.cycles", "cycles", "simulated cycles elapsed", &m.stats.Cycles)
	legacy("core.fetch.insts", "insts", "instructions fetched (wrong path included)", &m.stats.Fetched)
	for i := fetchStall(0); i < numFetchStalls; i++ {
		c("core.fetch.stall."+i.String(), "cycles", "fetch picked no thread: "+i.String(), &cnt.fetchStall[i])
	}

	c("core.rename.uops", "uops", "uops renamed and dispatched (injected included)", &cnt.renameUops)
	for i := renameStall(0); i < numRenameStalls; i++ {
		c("core.rename.stall."+i.String(), "cycles", "rename blocked: "+i.String(), &cnt.renameStall[i])
	}
	legacy("core.rename.stall_cycles", "cycles", "cycles the rename head stalled on a structural hazard", &m.stats.RenameStallCycles)

	c("core.issue.uops", "uops", "uops issued to functional units or cache ports", &cnt.issueUops)
	c("core.issue.stall.no_ready", "cycles", "IQ non-empty but no instruction had ready sources", &cnt.issueNoReady)
	c("core.issue.stall.fu_saturated", "cycles", "a ready instruction was denied a functional unit", &cnt.issueFUSat)
	c("core.issue.stall.dl1_ports", "cycles", "a ready memory operation was denied a DL1 port", &cnt.issueDL1Ports)
	c("core.issue.load_order_blocked", "events", "loads held behind an unresolved or overlapping older store", &cnt.loadOrderBlocked)

	for i := commitStall(0); i < numCommitStalls; i++ {
		c("core.commit.stall."+i.String(), "cycles", "commit retired nothing: "+i.String(), &cnt.commitStall[i])
	}
	c("core.commit.uops", "uops", "uops retired from the ROB (injected included)", &cnt.commitUops)
	c("core.squash.rob_uops", "uops", "renamed uops squashed out of the ROB", &cnt.squashedROB)
	c("core.squash.iq_uops", "uops", "un-issued uops purged from the IQ by squashes", &cnt.squashedIQ)
	c("core.rename.injected_uops", "uops", "injected window-trap operations renamed", &cnt.renameInjected)
	legacy("core.commit.squashed", "uops", "uops squashed by mispredictions, traps, and exits", &m.stats.Squashed)
	legacy("core.exec.mispredicts", "events", "resolved control instructions that mispredicted", &m.stats.Mispredicts)
	legacy("core.window.traps", "events", "conventional window overflow/underflow traps", &m.stats.WindowTraps)
	legacy("core.astq.spills_issued", "ops", "ASTQ spill operations issued to the DL1", &m.stats.SpillsIssued)
	legacy("core.astq.fills_issued", "ops", "ASTQ fill operations issued to the DL1", &m.stats.FillsIssued)

	cnt.robOcc = make([]metrics.Occupancy, m.cfg.Threads)
	cnt.lsqOcc = make([]metrics.Occupancy, m.cfg.Threads)
	for t := 0; t < m.cfg.Threads; t++ {
		legacy(fmt.Sprintf("core.commit.insts.t%d", t), "insts", "instructions committed by this thread", &m.threads[t].committed)
		reg.RegisterOccupancy(fmt.Sprintf("core.occ.rob.t%d", t), "entries", "this thread's ROB residency, sampled per cycle", &cnt.robOcc[t])
		reg.RegisterOccupancy(fmt.Sprintf("core.occ.lsq.t%d", t), "entries", "this thread's LSQ store residency, sampled per cycle", &cnt.lsqOcc[t])
	}
	reg.RegisterOccupancy("core.occ.iq", "entries", "shared instruction-queue occupancy, sampled per cycle", &cnt.iqOcc)
	reg.RegisterOccupancy("core.occ.astq", "entries", "shared ASTQ occupancy, sampled per cycle", &cnt.astqOcc)

	m.hier.RegisterMetrics(reg)
	m.bp.RegisterMetrics(reg)
	if m.vca != nil {
		m.vca.Stats.RegisterMetrics(reg)
	}
}

// noteFetchStall records why fetch picked no thread this cycle, and, when
// tracing, drops an instant event on the front-end lane so the bubble is
// attributable in the timeline.
func (m *Machine) noteFetchStall() {
	allDone := true
	var anyInject, anyBlocked, anyBufFull bool
	pid := 0
	for _, th := range m.threads {
		if th.done {
			continue
		}
		allDone = false
		pid = th.id
		switch {
		case th.injectPending() > 0:
			anyInject = true
		case m.cycle < th.fetchBlockedUntil:
			anyBlocked = true
		case m.fetchBufCount(th) >= m.fetchBufCap():
			anyBufFull = true
		}
	}
	cause := fsBufFull
	switch {
	case allDone:
		cause = fsThreadsDone
	case anyInject:
		cause = fsInject
	case anyBlocked:
		cause = fsBlocked
	case anyBufFull:
		cause = fsBufFull
	}
	m.cnt.fetchStall[cause]++
	if rec := m.cfg.ChromeTrace; rec != nil && cause != fsThreadsDone {
		rec.Instant("fetch-stall: "+cause.String(), "stall", pid, laneFrontend, m.cycle)
	}
}

// noteRenameStall records one rename-stage stall cause (at most one per
// cycle: the stage stops at its first blocked uop). Structural causes
// also drop an instant on the queue lane when tracing; "empty" cycles
// are counted but not traced (they are the absence of work, not a
// hazard, and would dominate the timeline).
func (m *Machine) noteRenameStall(th *thread, cause renameStall) {
	m.cnt.renameStall[cause]++
	if rec := m.cfg.ChromeTrace; rec != nil && cause != rsEmpty {
		pid := 0
		if th != nil {
			pid = th.id
		}
		rec.Instant("rename-stall: "+cause.String(), "stall", pid, laneQueue, m.cycle)
	}
}

// noteCommitStall classifies a retired-nothing cycle by what the ROB
// head was doing. Called only when the first commit slot of the cycle is
// blocked, so each stalled cycle is counted exactly once. No trace
// instant is emitted: the head uop's retire slice already spans the wait.
func (m *Machine) noteCommitStall(u *uop) {
	m.cnt.commitStall[commitStallCause(u)]++
}

// commitStallCause classifies a not-yet-done ROB head (shared between
// the per-cycle path and the quiesced-skip bulk accounting).
func commitStallCause(u *uop) commitStall {
	switch {
	case u.isLoad():
		return csHeadLoad
	case u.isStore():
		return csHeadStore
	}
	return csHeadExec
}

// sampleOccupancy runs once per cycle after all stages and feeds the
// occupancy trackers (and, when tracing, the viewer's counter tracks).
func (m *Machine) sampleOccupancy() {
	rec := m.cfg.ChromeTrace
	for _, th := range m.threads {
		m.cnt.robOcc[th.id].Observe(uint64(th.robCount))
		m.cnt.lsqOcc[th.id].Observe(uint64(th.lsqStores))
		if rec != nil {
			rec.Counter("occ.rob", th.id, m.cycle, uint64(th.robCount))
			rec.Counter("occ.lsq", th.id, m.cycle, uint64(th.lsqStores))
		}
	}
	m.cnt.iqOcc.Observe(uint64(m.iqCount))
	m.cnt.astqOcc.Observe(uint64(m.astqLen()))
	if rec != nil {
		rec.Counter("occ.iq", 0, m.cycle, uint64(m.iqCount))
		rec.Counter("occ.astq", 0, m.cycle, uint64(m.astqLen()))
	}
}
