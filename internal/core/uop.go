package core

import (
	"vca/internal/branch"
	"vca/internal/isa"
)

// uop is one in-flight instruction (or injected window-trap memory
// operation). A uop lives in the ROB from rename to commit or squash.
//
// Uops are recycled through the machine's pool, and newUop resets only
// the embedded uopHot: the fields some path reads before writing. Every
// other field is written before it is read on each path that reads it —
// at fetch or injection, at rename, or at issue — so a recycled uop's
// stale values there are never observed (TestRecycledUopsCarryNoState
// checks this with a pool of garbage-filled uops).
//
// The fields are ordered by use, and the struct (248 bytes) allocates
// from Go's 256-byte size class, whose objects sit on cache-line
// boundaries: the first 64 bytes hold what every stage reads, the next
// 64 the rename results, the instruction and the execution outcome, the
// third the rest of the rename results, the control outcome, the memory
// access and the stage stamps, and the last the fields only some uops
// use.
type uop struct {
	uopHot

	seq   uint64
	stamp uint64 // dispatch-order serial (registerDispatch; see wakeup.go)
	pc    uint64
	// d is the instruction's static descriptor from the program's
	// predecoded metadata: class, rename operands and their slots, issue
	// kind and latency. Injected window-trap operations point at the
	// invalid word's descriptor; their kind and inj* fields say what
	// they do.
	d      *isa.Meta
	thread int
	kind   isa.IssueKind // d.Issue, or IssueLoad/IssueStore for injected ops
	isCtl  bool          // d.Ctl != CtlNone

	// Scheduler residency: inIQ and inLSQ are set when rename dispatches
	// the uop, inWheel when issue schedules its completion (wheel.go).
	inIQ    bool
	inLSQ   bool
	inWheel bool

	destReg  isa.Reg
	injStore bool // injected: a window save (else a restore)
	taken    bool // control: the resolved direction, written at execute

	// Rename results. srcPhys and destPhys/destPrev start as PhysNone at
	// fetch or injection; the rest are written by rename and read only
	// when destPhys names a register.
	srcPhys  [2]int
	destPhys int
	destPrev int

	doneAt uint64 // execution: completion cycle, written at issue
	result uint64
	inst   isa.Inst

	destAddr uint64 // VCA logical register address
	destLog  int    // conventional logical index

	// Control flow: the prediction is written at fetch, the outcome at
	// execute; both are read only for control uops.
	predNPC   uint64
	actualNPC uint64

	// Memory operations, written at issue.
	ea        uint64
	storeData uint64
	memBytes  int

	// Stage timestamps, written at fetch, rename and issue and consumed
	// by the Chrome-trace recorder at commit (see chrometrace.go). Zero means "never reached" — injected window-trap
	// operations skip fetch, so newInjectedUop writes a zero fetchedAt
	// (cycle numbering starts at 1, so zero is unambiguous). uint32 keeps
	// the pooled uop small; timeline recording of runs past 2^32 cycles
	// is not a supported combination (the trace buffer would exhaust
	// memory long before the counter wraps).
	fetchedAt uint32
	renamedAt uint32
	issuedAt  uint32

	ck branch.Checkpoint // control: predictor state before the prediction

	// Syscall operand capture (performed at execute, applied at commit).
	sysVals [2]uint64

	// Injected window-trap traffic (conventional windows, §4.1), written
	// by newInjectedUop and read only for injected uops.
	injLogical int    // logical register slot
	injAddr    uint64 // backing-store address
}

// uopHot holds the uop fields that some path reads before writing them:
// flags that only ever get set on the paths that need them, the window
// deltas rename writes only for calls and returns, and the wakeup
// bookkeeping registerDispatch accumulates into (the invariant checker
// reads inReady of a uop still waiting on its sources).
type uopHot struct {
	wbpDelta int32 // VCA window rotation applied at rename (±isa.WindowBytes)
	depDelta int8  // conventional speculative window depth delta

	injected bool

	// Event-driven scheduler state (see wakeup.go / wheel.go).
	// pendingSrcs counts the source operands still awaiting a producer;
	// srcWaiting marks which slots hold a live consumer-list
	// registration.
	pendingSrcs int8
	srcWaiting  [2]bool
	inReady     bool // on the machine's ready list

	issued   bool
	done     bool
	squashed bool
}

// newUop returns a uop whose uopHot is zeroed, recycling the machine's
// free list when possible; the caller writes the rest (see uop). Steady-state simulation allocates no uops: every uop
// returns to the pool at commit or squash.
//
// Pool safety invariant: a uop may be freed only once no machine
// structure (rob, lsq, fetchQ, pendingInject, ready list, consumer
// lists, timing wheel) references it.
// Stale pointers in writeback's resolved scratch are tolerated because a
// freed uop keeps its squashed flag until reallocation, and no uop is
// allocated between squash and the end of the writeback stage.
func (m *Machine) newUop() *uop {
	if n := len(m.uopPool); n > 0 {
		u := m.uopPool[n-1]
		m.uopPool = m.uopPool[:n-1]
		u.uopHot = uopHot{}
		return u
	}
	return new(uop)
}

// freeUop returns a retired or squashed uop to the pool.
func (m *Machine) freeUop(u *uop) {
	m.uopPool = append(m.uopPool, u)
}

func (u *uop) isLoad() bool  { return u.kind == isa.IssueLoad }
func (u *uop) isStore() bool { return u.kind == isa.IssueStore }
