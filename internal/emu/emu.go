// Package emu is the functional (in-order, one-instruction-per-step)
// reference implementation of the ISA. It plays two of the paper's
// methodological roles and one this reproduction adds:
//
//   - Path-length measurement (§3.1, Table 2). The paper's "fast
//     functional simulation" measures the complete dynamic instruction
//     count of each binary; the windowed/flat ratio of those counts is
//     Table 2, and the estimated-execution-time metric of every figure
//     is CPI × this full path length. Stats records the counts, and
//     window save/restore traffic is simulated architecturally (a frame
//     stack per window depth) so windowed and flat runs of one source
//     program produce identical outputs with different path lengths.
//   - Golden model for co-simulation. The out-of-order core steps a
//     private emulator instance in lockstep at commit and cross-checks
//     PC, destination value, store address/data, and control targets
//     (StepInfo carries the per-instruction facts). Any divergence —
//     wrong-path leakage, a rename bug, a mis-applied spill — fails the
//     run immediately rather than corrupting statistics silently. This
//     is the repository's strongest end-to-end check that the VCA
//     machinery is "complete and functionally correct" (§2.2).
//   - Workload calibration. Per-benchmark dynamic statistics
//     (conditional-branch counts, memory mix, call depth) become the
//     feature vectors the §3.2 clustering pipeline (internal/cluster)
//     selects SMT workloads from.
//
// All three roles run on one interpreter, the predecoded micro-op engine
// in fast.go: Run and FastRun execute it in batches, StepInto one
// instruction at a time with a StepInfo report. A decode-per-step
// reference interpreter survives only in the tests, as the differential
// oracle both entry points are checked against.
//
// The emulator is deliberately microarchitecture-free: no caches, no
// predictor, no timing — one architectural step per instruction, with
// syscalls (print/exit) applied immediately. Determinism here anchors
// determinism everywhere else: both rename substrates must commit the
// architectural state this package computes.
package emu

import (
	"bytes"
	"fmt"
	"math"

	"vca/internal/isa"
	"vca/internal/mem"
	"vca/internal/program"
)

// Config controls functional execution.
type Config struct {
	// Windowed selects register-window semantics: calls and returns
	// rotate the windowed register subset (r0-r15/f0-f15). Run windowed
	// binaries with Windowed=true and flat binaries with false.
	Windowed bool
	// StackTop is the initial stack pointer (default program.StackTop).
	StackTop uint64
	// MaxInsts aborts runaway programs (default 2^40).
	MaxInsts uint64
}

// StopReason says why Run returned.
type StopReason int

const (
	StopExited StopReason = iota
	StopMaxInsts
	StopError
)

func (r StopReason) String() string {
	switch r {
	case StopExited:
		return "exited"
	case StopMaxInsts:
		return "max-instructions"
	case StopError:
		return "error"
	}
	return "?"
}

// Stats are the dynamic execution statistics the clustering methodology
// (§3.2) and Table 2 consume.
type Stats struct {
	Insts        uint64
	CondBranches uint64
	TakenCond    uint64
	Loads        uint64
	Stores       uint64
	Calls        uint64
	Returns      uint64
	FPOps        uint64
	IntOps       uint64
	MaxCallDepth int
	Syscalls     uint64
}

// frame is one register-window frame of functional state.
type frame [isa.WindowSlots]uint64

// Machine is a functional processor state bound to one program.
type Machine struct {
	cfg  Config
	prog *program.Program
	mem  *mem.Memory
	text []isa.Inst
	fast []fastOp // the micro-op array, index-aligned with text (fast.go)

	pc      uint64
	globals [isa.GlobalSlots]uint64
	// Windowed machines keep a logical stack of window frames; flat
	// machines use windows[0] only. cur caches &windows[depth] (always
	// &windows[0] when flat) and must be refreshed whenever depth moves
	// or the windows slice reallocates.
	windows []frame
	depth   int // index of current frame
	cur     *frame
	// wmask is index-aligned with windows: bit s of wmask[d] is set once
	// frame d's slot s has been written since the frame was pushed. It
	// distinguishes live slots from architecturally-dead ones (fresh
	// frames read as zero here, but a detailed machine may hold stale
	// junk in never-written slots); checkpoint extraction uses it to
	// canonicalize dead slots. curMask caches &wmask[depth].
	wmask   []uint32
	curMask *uint32

	Stats    Stats
	Output   bytes.Buffer
	exited   bool
	exitCode int64
}

// StepInfo reports everything one architectural step did; the cycle-level
// core compares committed instructions against it.
type StepInfo struct {
	PC      uint64
	Inst    isa.Inst
	Dest    isa.Reg // RegNone when no register result
	DestVal uint64
	IsStore bool
	Addr    uint64 // effective address for loads/stores
	Taken   bool   // control transfer taken
	NextPC  uint64
}

// New creates a machine, loads the program image, and initializes sp and
// the call stack.
func New(p *program.Program, cfg Config) *Machine {
	if cfg.StackTop == 0 {
		cfg.StackTop = program.StackTop
	}
	if cfg.MaxInsts == 0 {
		cfg.MaxInsts = 1 << 40
	}
	m := &Machine{
		cfg:     cfg,
		prog:    p,
		mem:     mem.NewMemory(),
		text:    p.Predecode(),
		pc:      p.Entry,
		windows: make([]frame, 1, 64),
		wmask:   make([]uint32, 1, 64),
	}
	m.cur = &m.windows[0]
	m.curMask = &m.wmask[0]
	m.buildFast()
	p.LoadInto(m.mem)
	m.WriteReg(isa.RegSP, cfg.StackTop)
	return m
}

// PC returns the current program counter.
func (m *Machine) PC() uint64 { return m.pc }

// Exited reports whether the program has executed the exit syscall, and
// with which status.
func (m *Machine) Exited() (bool, int64) { return m.exited, m.exitCode }

// regSlot flattens the ReadReg/WriteReg register classification into one
// table lookup: -1 for zero registers (and RegNone), window-frame slots
// as [0,WindowSlots), global slots offset by WindowSlots.
var regSlot = func() (t [256]int8) {
	for i := range t {
		t[i] = -1
	}
	for r := isa.Reg(0); r < isa.NumArchRegs; r++ {
		switch {
		case r.IsZero():
		case r.IsWindowed():
			t[r] = int8(r.WindowSlot())
		default:
			t[r] = int8(isa.WindowSlots + r.GlobalSlot())
		}
	}
	return
}()

// ReadReg returns the architectural value of r in the current context.
func (m *Machine) ReadReg(r isa.Reg) uint64 {
	s := regSlot[r]
	if s < 0 {
		return 0
	}
	if s < isa.WindowSlots {
		return m.cur[s]
	}
	return m.globals[s-isa.WindowSlots]
}

// WriteReg sets the architectural value of r in the current context.
// Writes to zero registers are discarded.
func (m *Machine) WriteReg(r isa.Reg, v uint64) {
	s := regSlot[r]
	if s < 0 {
		return
	}
	if s < isa.WindowSlots {
		m.cur[s] = v
		*m.curMask |= 1 << uint(s)
		return
	}
	m.globals[s-isa.WindowSlots] = v
}

func (m *Machine) pushWindow() {
	if !m.cfg.Windowed {
		return
	}
	m.depth++
	if m.depth == len(m.windows) {
		m.windows = append(m.windows, frame{})
		m.wmask = append(m.wmask, 0)
	} else {
		m.windows[m.depth] = frame{}
		m.wmask[m.depth] = 0
	}
	m.cur = &m.windows[m.depth]
	m.curMask = &m.wmask[m.depth]
	if m.depth > m.Stats.MaxCallDepth {
		m.Stats.MaxCallDepth = m.depth
	}
}

// Run executes until exit, error, or the instruction budget
// (Config.MaxInsts, counted in Stats.Insts) is exhausted.
func (m *Machine) Run() (StopReason, error) {
	if m.Stats.Insts >= m.cfg.MaxInsts {
		return StopMaxInsts, nil
	}
	if _, err := m.FastRun(m.cfg.MaxInsts - m.Stats.Insts); err != nil {
		return StopError, err
	}
	if m.exited {
		return StopExited, nil
	}
	return StopMaxInsts, nil
}

func (m *Machine) syscall(code int32) error {
	switch code {
	case isa.SysExit:
		m.exited = true
		m.exitCode = int64(m.ReadReg(isa.RegA0))
	case isa.SysPutChar:
		m.Output.WriteByte(byte(m.ReadReg(isa.RegA0)))
	case isa.SysPutInt:
		fmt.Fprintf(&m.Output, "%d", int64(m.ReadReg(isa.RegA0)))
	case isa.SysPutFloat:
		fmt.Fprintf(&m.Output, "%g", f64(m.ReadReg(isa.RegFA0)))
	case isa.SysPutStr:
		addr := m.ReadReg(isa.RegA0)
		n := int(m.ReadReg(isa.RegA1))
		if n < 0 || n > 1<<20 {
			return fmt.Errorf("emu: unreasonable putstr length %d", n)
		}
		m.Output.Write(m.mem.ReadBytes(addr, n))
	default:
		return fmt.Errorf("emu: unknown syscall %d at pc %#x", code, m.pc)
	}
	return nil
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }
