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
	"math/bits"

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

// The register file's cells, as Machine.regs lays them out: the current
// window frame, then the globals, then a zero cell that reads of the
// zero registers and RegNone hit, and a sink that writes to them land
// in. Every operand is one index into regs, with no branch.
const (
	globalCell = isa.WindowSlots                   // globals at [globalCell, zeroCell)
	zeroCell   = isa.WindowSlots + isa.GlobalSlots // always 0
	sinkCell   = zeroCell + 1                      // discarded writes
)

// savedFrame is a caller's window frame while a callee runs. Only the
// slots in wmask|dead are kept: the others read as zero.
type savedFrame struct {
	regs        frame
	wmask, dead uint32
}

// Machine is a functional processor state bound to one program.
type Machine struct {
	cfg  Config
	prog *program.Program
	mem  *mem.Memory
	text []isa.Inst
	fast []fastOp // the micro-op array, index-aligned with text (fast.go)

	pc uint64
	// regs is the register file (cells laid out as above). It is sized
	// so that any uint8 cell index is in bounds.
	regs [256]uint64
	// wmask has bit s set once slot s of the current frame has been
	// written since the frame was pushed. It tells live slots from
	// architecturally dead ones (fresh frames read as zero here, but a
	// detailed machine may hold stale junk in never-written slots);
	// checkpoint extraction uses it to canonicalize dead slots. Flat
	// machines keep it for their only frame.
	wmask uint32
	// dead marks current-frame slots outside wmask that hold nonzero
	// values. Only a restored checkpoint image can hold such slots: a
	// pushed frame starts all zero.
	dead uint32
	// Windowed machines keep the frames of callers in saved[:depth];
	// entries past depth are storage for deeper calls, never read. A
	// push moves only the caller's live slots (wmask|dead) out and
	// zeroes them; a pop zeroes the callee's and moves the caller's
	// back. Either way nothing else of the 32-slot frame is copied.
	saved []savedFrame
	depth int // index of current frame

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
		cfg:  cfg,
		prog: p,
		mem:  mem.NewMemory(),
		text: p.Predecode(),
		pc:   p.Entry,
	}
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

// readCell and writeCell map every register id (RegNone and the zero
// registers included) to its cell in Machine.regs; cellBit maps a cell to
// its write-mask bit, which is zero outside the window frame.
var readCell, writeCell, cellBit = func() (rd, wr [256]uint8, bit [256]uint32) {
	for r := range rd {
		rd[r], wr[r] = zeroCell, sinkCell
	}
	for r := isa.Reg(0); r < isa.NumArchRegs; r++ {
		switch {
		case r.IsZero():
		case r.IsWindowed():
			rd[r], wr[r] = uint8(r.WindowSlot()), uint8(r.WindowSlot())
			bit[r.WindowSlot()] = 1 << r.WindowSlot()
		default:
			rd[r], wr[r] = uint8(globalCell+r.GlobalSlot()), uint8(globalCell+r.GlobalSlot())
		}
	}
	return
}()

// ReadReg returns the architectural value of r in the current context.
func (m *Machine) ReadReg(r isa.Reg) uint64 { return m.regs[readCell[r]] }

// WriteReg sets the architectural value of r in the current context.
// Writes to zero registers are discarded.
func (m *Machine) WriteReg(r isa.Reg, v uint64) {
	c := writeCell[r]
	m.regs[c] = v
	m.wmask |= cellBit[c]
}

// pushWindow enters a fresh, all-zero window frame on a windowed machine.
func (m *Machine) pushWindow() {
	if !m.cfg.Windowed {
		return
	}
	if m.depth == len(m.saved) {
		m.saved = append(m.saved, savedFrame{})
	}
	sf := &m.saved[m.depth]
	sf.wmask, sf.dead = m.wmask, m.dead
	for b := m.wmask | m.dead; b != 0; b &= b - 1 {
		s := bits.TrailingZeros32(b)
		sf.regs[s], m.regs[s] = m.regs[s], 0
	}
	m.wmask, m.dead = 0, 0
	m.depth++
	if m.depth > m.Stats.MaxCallDepth {
		m.Stats.MaxCallDepth = m.depth
	}
}

// popWindow returns to the caller's frame; the caller checks for
// underflow (depth 0) and for a flat machine first.
func (m *Machine) popWindow() {
	for b := m.wmask | m.dead; b != 0; b &= b - 1 {
		m.regs[bits.TrailingZeros32(b)] = 0
	}
	m.depth--
	sf := &m.saved[m.depth]
	m.wmask, m.dead = sf.wmask, sf.dead
	for b := m.wmask | m.dead; b != 0; b &= b - 1 {
		s := bits.TrailingZeros32(b)
		m.regs[s] = sf.regs[s]
	}
}

// frameAt returns window frame d (0 <= d <= depth) and its write mask.
func (m *Machine) frameAt(d int) (f frame, wmask uint32) {
	if d == m.depth {
		return frame(m.regs[:isa.WindowSlots]), m.wmask
	}
	sf := &m.saved[d]
	for b := sf.wmask | sf.dead; b != 0; b &= b - 1 {
		s := bits.TrailingZeros32(b)
		f[s] = sf.regs[s]
	}
	return f, sf.wmask
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
