package core

import (
	"bytes"
	"fmt"

	"vca/internal/branch"
	"vca/internal/emu"
	"vca/internal/isa"
	"vca/internal/mem"
	"vca/internal/metrics"
	"vca/internal/program"
	"vca/internal/rename"
)

// thread is one hardware thread context: a program, its memory image, the
// front-end state, and (depending on the machine) window bookkeeping.
type thread struct {
	id   int
	prog *program.Program
	text []isa.Inst
	meta []isa.Meta // predecoded descriptors, index-aligned with text
	mem  *mem.Memory

	pc       uint64
	commitPC uint64 // next PC in committed order (checkpoint extraction)
	done     bool
	exitCode int64
	output   bytes.Buffer

	committed uint64
	inFlight  int // front-end + IQ occupancy, for ICOUNT fetch
	inFetchQ  int // this thread's fetch-buffer entries (fetchBufCap check)
	lsqStores int // this thread's stores resident in the LSQ
	robCount  int // this thread's ROB residency (occupancy sampling)

	fetchBlockedUntil  uint64
	renameBlockedUntil uint64

	// VCA base pointers (§2.1.4/2.1.5). specWBP is the rename-time
	// (speculative) window base pointer; commitWBP tracks committed state
	// for diagnostics.
	gbp, specWBP, commitWBP uint64

	// Conventional register windows (§4.1).
	specDepth   int
	commitDepth int
	winBase     int // oldest resident window depth

	// Window-trap memory ops awaiting rename, drained from injectHead so
	// the backing array is reused across traps (a trap injects a whole
	// window's worth of slots at once).
	pendingInject []*uop
	injectHead    int
	injectedLive  int // injected uops created but not yet committed

	windowed bool // this thread's binary uses the windowed ABI

	ref *emu.Machine // co-simulation golden model

	memTag uint64 // distinguishes per-thread addresses in shared caches
}

// Machine is the cycle-level simulated processor.
type Machine struct {
	cfg     Config
	threads []*thread
	hier    *mem.Hierarchy
	bp      *branch.Predictor

	conv    *rename.Conventional
	vca     *rename.VCA
	nwin    int  // conventional window count
	windows bool // the machine has register windows (any window model)

	physVal   []uint64
	physReady []bool

	cycle uint64
	seq   uint64
	lsq   []*uop

	// Event-driven scheduler (wakeup.go / wheel.go / quiesce.go). The IQ
	// no longer exists as a scanned slice: a dispatched uop lives on
	// consumer lists until its sources resolve, then on the ready list
	// until issue; iqCount tracks logical IQ occupancy for the size limit
	// and occupancy sampling. ewheel/awheel bucket in-flight completions
	// by doneAt. noSkip is a test knob disabling the quiesced-cycle skip.
	// stopExact is a test knob freezing commit per thread exactly at the
	// StopAfter budget instead of finishing the commit group (plain
	// StopAfter can overshoot by up to Width-1 instructions in the
	// stopping cycle), so an extracted checkpoint lands on a known
	// instruction count; when the budget lands on a window trap, the run
	// drains the trap's injected operations before stopping so committed
	// window state is complete at the boundary.
	iqCount     int
	ready       []*uop
	readyDirty  bool
	dispatchSeq uint64
	consumers   [][]consRef
	ewheel      execWheel
	awheel      astqWheel
	noSkip      bool
	stopExact   bool

	// FIFO queues drained from the front every cycle. Each is a slice
	// plus a head index so pops recycle the backing array instead of
	// reallocating it (the re-slice-and-append pattern allocates a fresh
	// array every time the consumed prefix exhausts the capacity).
	rob       []*uop
	robHead   int
	fetchQ    []fetchEntry // decoded, predicted, awaiting rename
	fetchHead int
	astq      []astqEntry
	astqHead  int

	// Allocation-free steady state: recycled uops and per-cycle scratch
	// buffers (retained across cycles so the hot loop never allocates).
	uopPool         []*uop
	opsScratch      []rename.MemOp
	resolvedScratch []*uop
	victimScratch   []*uop

	// Per-cycle resource budgets (reset each cycle; rename credits may
	// carry debt from a multi-operation instruction).
	dl1Ports   int
	portCredit int
	astqCredit int

	stats   Stats
	metrics *metrics.Registry
	cnt     coreCounters
	chk     *checker // lazily built by the opt-in invariant checker
	astqSeq uint64   // ASTQ enqueue stamp (FIFO-order invariant)
	err     error
}

type fetchEntry struct {
	u       *uop
	readyAt uint64 // cycle at which it reaches the rename stage
}

type astqEntry struct {
	op     rename.MemOp
	thread int
	doneAt uint64
	issued bool
	enq    uint64 // enqueue stamp; the queue must stay ascending (FIFO)
}

// Stats aggregates the measurements the experiments consume.
type Stats struct {
	Cycles            uint64
	Fetched           uint64
	Squashed          uint64
	Mispredicts       uint64
	WindowTraps       uint64
	SpillsIssued      uint64
	FillsIssued       uint64
	RenameStallCycles uint64
	IQFullStalls      uint64
	ROBFullStalls     uint64
}

// New builds a machine running the given programs (one per thread; their
// count must equal cfg.Threads). Windowed binaries must be run on a
// machine with a window model and vice versa.
func New(cfg Config, progs []*program.Program, windowed bool) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(progs) != cfg.Threads {
		return nil, fmt.Errorf("core: %d programs for %d threads", len(progs), cfg.Threads)
	}
	if windowed != cfg.Window.Windowed() {
		return nil, fmt.Errorf("core: windowed-binary flag %v does not match window model %v", windowed, cfg.Window)
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 40
	}

	m := &Machine{
		cfg:  cfg,
		hier: mem.NewHierarchy(cfg.Hier),
		bp:   branch.New(cfg.BP),
	}
	m.windows = windowed
	m.physVal = make([]uint64, cfg.PhysRegs)
	m.physReady = make([]bool, cfg.PhysRegs)
	// Pre-carve per-register consumer-list capacity from one backing
	// array (same reasoning as the wheel buckets: reach allocation-free
	// steady state without per-list append growth).
	m.consumers = make([][]consRef, cfg.PhysRegs)
	consBacking := make([]consRef, cfg.PhysRegs*4)
	for p := range m.consumers {
		m.consumers[p] = consBacking[p*4 : p*4 : (p+1)*4]
	}
	m.ready = make([]*uop, 0, cfg.IQSize)
	memSpan := cfg.Hier.DL1.HitLat + cfg.Hier.L2.HitLat + cfg.Hier.MemLat
	m.ewheel.init(memSpan)
	m.awheel.init(memSpan)

	// Rename substrate.
	switch cfg.Rename {
	case RenameConventional:
		var logical int
		m.nwin, logical = cfg.convFile()
		conv, err := rename.NewConventional(cfg.Threads, logical, cfg.PhysRegs)
		if err != nil {
			return nil, err
		}
		m.conv = conv
	case RenameVCA:
		vcfg := cfg.VCA
		vcfg.PhysRegs = cfg.PhysRegs
		m.vca = rename.NewVCA(vcfg)
		m.vca.ReadValue = func(p int) uint64 { return m.physVal[p] }
	}

	// Threads.
	for t := 0; t < cfg.Threads; t++ {
		p := progs[t]
		if err := p.Validate(); err != nil {
			return nil, err
		}
		th := &thread{
			id:       t,
			prog:     p,
			text:     p.Predecode(),
			meta:     p.Meta(),
			mem:      mem.NewMemory(),
			pc:       p.Entry,
			commitPC: p.Entry,
			windowed: windowed,
			memTag:   uint64(t) << 44,
		}
		p.LoadInto(th.mem)
		gbp, wbp := program.ThreadRegSpace(t)
		th.gbp, th.specWBP, th.commitWBP = gbp, wbp, wbp
		m.threads = append(m.threads, th)

		m.initRegs(th)

		if cfg.CoSim {
			th.ref = emu.New(p, emu.Config{Windowed: windowed})
		}
	}

	m.metrics = metrics.NewRegistry()
	m.registerMetrics()
	if cfg.ChromeTrace != nil {
		m.initChromeTrace()
	}
	return m, nil
}

// initRegs installs initial architectural values (everything zero except
// sp). Conventional machines write the pre-allocated physical registers;
// VCA machines write the memory-mapped backing store, from which values
// fill on demand.
func (m *Machine) initRegs(th *thread) {
	setReg := func(r isa.Reg, v uint64) {
		s := isa.SlotOf(r, m.windows)
		switch m.cfg.Rename {
		case RenameConventional:
			p := m.conv.Lookup(th.id, m.convLogical(th, s)) // window depth 0
			m.physVal[p] = v
			m.physReady[p] = true
		case RenameVCA:
			th.mem.Write(th.regAddr(s), 8, v)
		}
	}
	if m.cfg.Rename == RenameConventional {
		// All pre-allocated mappings start ready with value zero.
		_, logical := m.cfg.convFile()
		for l := 0; l < logical; l++ {
			p := m.conv.Lookup(th.id, l)
			m.physVal[p] = 0
			m.physReady[p] = true
		}
	}
	setReg(isa.RegSP, program.StackTop)
}

// winSlotLogical returns the logical index of window slot s at depth d.
func (m *Machine) winSlotLogical(d, s int) int {
	return isa.GlobalSlots + (d%m.nwin)*isa.WindowSlots + s
}

// regAddr computes a VCA logical register's memory address (§2.1.1):
// the slot's window or global base pointer plus its offset.
func (th *thread) regAddr(s isa.RegSlot) uint64 {
	base := th.gbp
	if s.Win() {
		base = th.specWBP
	}
	return base + s.Off()
}

// windowAddr gives the backing-store address of window depth d for
// conventional window traps (shared layout with VCA window stacks).
func (m *Machine) windowAddr(th *thread, d int) uint64 {
	_, wbpTop := program.ThreadRegSpace(th.id)
	return wbpTop - uint64(d)*isa.WindowBytes
}

// cacheAddr tags a thread-local address for the shared cache hierarchy.
func (th *thread) cacheAddr(addr uint64) uint64 { return addr ^ th.memTag }

// Done reports whether every thread has exited.
func (m *Machine) Done() bool {
	for _, th := range m.threads {
		if !th.done {
			return false
		}
	}
	return true
}

// Run simulates until completion, the StopAfter commit budget, an error,
// or MaxCycles. It returns the collected statistics.
func (m *Machine) Run() (*Result, error) {
	for m.cycle = 1; m.cycle <= m.cfg.MaxCycles; m.cycle++ {
		m.dl1Ports = m.cfg.Hier.DL1Ports

		m.commitStage()
		if m.err != nil {
			return nil, m.err
		}
		m.writebackStage()
		m.issueStage()
		m.renameStage()
		m.fetchStage()
		m.sampleOccupancy()
		if m.cfg.Check {
			if m.checkCycle(); m.err != nil {
				return nil, m.err
			}
		}

		if m.Done() {
			break
		}
		if m.cfg.StopAfter > 0 {
			for _, th := range m.threads {
				if th.committed >= m.cfg.StopAfter {
					// Under stopExact the boundary must leave committed
					// window state whole: when the budget lands on a
					// trapping call/return, keep cycling until the trap's
					// injected spill/fill operations have all committed
					// (commit of real instructions stays frozen).
					if m.stopExact && th.injectedLive > 0 {
						continue
					}
					return m.result(), nil
				}
			}
		}

		m.quiesceSkip()
		if m.err != nil {
			return nil, m.err
		}
	}
	if m.cycle > m.cfg.MaxCycles {
		return nil, fmt.Errorf("core: exceeded %d cycles (hang?)", m.cfg.MaxCycles)
	}
	return m.result(), nil
}

// robLen is the live ROB occupancy.
func (m *Machine) robLen() int { return len(m.rob) - m.robHead }

// popROB consumes the oldest live ROB entry, resetting or compacting the
// backing array once the consumed prefix dominates.
func (m *Machine) popROB() {
	m.robHead++
	if m.robHead == len(m.rob) {
		m.rob = m.rob[:0]
		m.robHead = 0
	} else if m.robHead >= 256 && m.robHead*2 >= len(m.rob) {
		n := copy(m.rob, m.rob[m.robHead:])
		m.rob = m.rob[:n]
		m.robHead = 0
	}
}

// injectPending is the number of window-trap operations still awaiting
// rename.
func (th *thread) injectPending() int { return len(th.pendingInject) - th.injectHead }

// popInject consumes the oldest pending injected operation. The queue
// fully drains between traps (a trap cannot fire while injections are
// outstanding), so emptying it resets the backing array for reuse.
func (th *thread) popInject() {
	th.injectHead++
	if th.injectHead == len(th.pendingInject) {
		th.pendingInject = th.pendingInject[:0]
		th.injectHead = 0
	}
}

// astqLen is the live ASTQ occupancy.
func (m *Machine) astqLen() int { return len(m.astq) - m.astqHead }

// popASTQ consumes the oldest live ASTQ entry.
func (m *Machine) popASTQ() {
	m.astqHead++
	if m.astqHead == len(m.astq) {
		m.astq = m.astq[:0]
		m.astqHead = 0
	} else if m.astqHead >= 64 && m.astqHead*2 >= len(m.astq) {
		n := copy(m.astq, m.astq[m.astqHead:])
		m.astq = m.astq[:n]
		m.astqHead = 0
	}
}

// readSrc returns the current value of a renamed source (zero registers
// and absent operands read as zero).
func (m *Machine) readSrc(u *uop, i int) uint64 {
	p := u.srcPhys[i]
	if p == rename.PhysNone {
		return 0
	}
	return m.physVal[p]
}

func (m *Machine) srcReady(u *uop, i int) bool {
	p := u.srcPhys[i]
	return p == rename.PhysNone || m.physReady[p]
}

func (m *Machine) allSrcsReady(u *uop) bool {
	for i := range u.srcPhys {
		if !m.srcReady(u, i) {
			return false
		}
	}
	return true
}
