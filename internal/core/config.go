// Package core implements the cycle-level out-of-order processor model:
// a four-wide, eight-deep superscalar pipeline (Table 1) with SMT, a
// choice of rename substrate (conventional merged register file or the
// virtual context architecture), and a choice of register-window model
// (none, conventional trap-based, VCA-backed, or idealized).
//
// Values flow through the timing model: physical registers hold real
// 64-bit data and instructions execute in the execute stage, so
// mispredicted paths rename, issue, and access the cache until squashed —
// the wrong-path effects Figures 4-8 depend on. Committed architectural
// state is optionally checked instruction-by-instruction against the
// functional emulator (co-simulation).
package core

import (
	"errors"
	"fmt"
	"io"

	"vca/internal/branch"
	"vca/internal/isa"
	"vca/internal/mem"
	"vca/internal/metrics"
	"vca/internal/rename"
)

// RenameModel selects the rename substrate.
type RenameModel int

const (
	RenameConventional RenameModel = iota
	RenameVCA
)

func (r RenameModel) String() string {
	if r == RenameVCA {
		return "vca"
	}
	return "conventional"
}

// WindowModel selects how register windows are provided.
type WindowModel int

const (
	// WindowNone runs flat-ABI binaries: calls and returns do not rotate
	// the register file.
	WindowNone WindowModel = iota
	// WindowConventional expands the logical register file to hold
	// multiple windows and traps (10-cycle stall + whole-window copy
	// instructions) on overflow/underflow, as in §4.1. Requires
	// RenameConventional.
	WindowConventional
	// WindowVCA rotates the thread's window base pointer at rename
	// (§2.1.5). Requires RenameVCA.
	WindowVCA
	// WindowIdeal is the paper's idealized window machine: spills and
	// fills are instantaneous and never touch the data cache. Implemented
	// as a VCA machine with free, immediate spill/fill and a conflict-free
	// rename table. Requires RenameVCA.
	WindowIdeal
)

func (w WindowModel) String() string {
	switch w {
	case WindowConventional:
		return "conv-window"
	case WindowVCA:
		return "vca-window"
	case WindowIdeal:
		return "ideal-window"
	}
	return "no-window"
}

// Windowed reports whether the model runs windowed-ABI binaries: every
// model but WindowNone.
func (w WindowModel) Windowed() bool { return w != WindowNone }

// Config assembles a machine. DefaultConfig reproduces Table 1.
type Config struct {
	Threads  int
	PhysRegs int
	Rename   RenameModel
	Window   WindowModel

	Width       int // fetch/rename/commit width
	IQSize      int
	ROBSize     int
	LSQSize     int
	ASTQSize    int
	IntALUs     int
	IntMulDivs  int
	FPUs        int
	FrontLat    int // fetch-to-rename latency; +1 is added for VCA (extra rename stage, Fig. 1)
	TrapPenalty int // conventional window overflow/underflow stall (§4.1)

	// RecoveryWalk charges rename a walk of ceil(squashed/width) cycles
	// after a misprediction (the Pentium-4-style recovery of §2.1.3).
	// Conventional machines are modeled with rename-table checkpoints
	// (21264-style) and recover instantly.
	RecoveryWalk bool

	VCA  rename.VCAConfig
	Hier mem.HierarchyConfig
	BP   branch.Config

	// CoSim cross-checks every committed instruction against the
	// functional emulator. Architectural divergence becomes an error.
	CoSim bool

	// Check runs the cycle-level invariant checker after every simulated
	// cycle (see check.go and docs/VERIFICATION.md): rename-substrate
	// conservation and pin audits, queue age monotonicity, occupancy
	// bookkeeping, and event-counter identities. A violation aborts Run
	// with an error. Strictly opt-in: false costs one branch per cycle.
	Check bool

	// TraceWriter, when non-nil, receives one line per committed
	// instruction (see trace.go for the format).
	TraceWriter io.Writer

	// ChromeTrace, when non-nil, records a Chrome trace-event timeline of
	// the run (per-uop stage slices, stall instants, occupancy tracks —
	// see chrometrace.go). Strictly opt-in: nil costs nothing.
	ChromeTrace *metrics.TraceRecorder

	// StopAfter ends simulation once any thread has committed this many
	// instructions (0 = run to program exit).
	StopAfter uint64
	// MaxCycles guards against hangs (default 2^40).
	MaxCycles uint64
}

// DefaultConfig returns the paper's baseline processor (Table 1) for a
// given machine flavor. physRegs follows the experiment sweeps.
func DefaultConfig(rm RenameModel, wm WindowModel, threads, physRegs int) Config {
	cfg := Config{
		Threads:  threads,
		PhysRegs: physRegs,
		Rename:   rm,
		Window:   wm,

		Width:       4,
		IQSize:      128,
		ROBSize:     192,
		LSQSize:     64,
		ASTQSize:    4,
		IntALUs:     4,
		IntMulDivs:  2,
		FPUs:        2,
		FrontLat:    5, // 8-cycle fetch-to-exec minus dispatch/issue/exec
		TrapPenalty: 10,

		RecoveryWalk: rm == RenameVCA,

		VCA:  rename.DefaultVCAConfig(threads, physRegs),
		Hier: mem.DefaultHierarchyConfig(),
		BP:   branch.DefaultConfig(threads),

		CoSim:     true,
		MaxCycles: 1 << 40,
	}
	if rm == RenameVCA {
		cfg.FrontLat++ // the extra rename stage (R2 in Figure 1)
	}
	if wm == WindowIdeal {
		// The paper's ideal model idealizes only the spill/fill handling
		// ("instantaneously and without accessing the data cache", §4.1):
		// the pipeline itself — including VCA's extra rename stage and
		// recovery discipline — is unchanged. A conflict-free table makes
		// the free fills unnecessary in the first place.
		//
		// The table then has 131,072 ways, so no per-rename path may
		// walk it: victim selection scans physical registers instead.
		// Only the sets a run touches get storage (rename.VCA), and the
		// remaining whole-table walks (the RSID-reuse flush, rare;
		// CheckInvariants, checker only) read only those sets' ways.
		cfg.VCA.Sets = 1 << 14
		cfg.VCA.Ways = 8
		cfg.VCA.Ports = 1 << 20
		cfg.VCA.ASTQWrites = 1 << 20
	}
	return cfg
}

// ErrInfeasible marks a well-formed configuration whose register file is
// too small for its threads' logical registers: the paper's "No
// Baseline" regions. Validate's refusals of this kind satisfy
// errors.Is(err, ErrInfeasible); every other refusal is a malformed
// configuration.
var ErrInfeasible = errors.New("core: register file too small for the machine")

// Validate rejects inconsistent combinations, and machines that cannot
// be built at their register-file size (ErrInfeasible). New calls it
// first; past it, New refuses only programs that do not fit the config.
func (c *Config) Validate() error {
	switch c.Window {
	case WindowConventional:
		if c.Rename != RenameConventional {
			return errConfig("WindowConventional requires RenameConventional")
		}
	case WindowVCA, WindowIdeal:
		if c.Rename != RenameVCA {
			return errConfig("VCA/ideal windows require RenameVCA")
		}
	}
	if c.Threads < 1 || c.Width < 1 || c.PhysRegs < 1 {
		return errConfig("threads, width, and physRegs must be positive")
	}
	if c.Rename == RenameVCA && c.VCA.Ways < 2 {
		// §2.1.1: the rename table needs associativity at least equal to
		// the maximum number of source operands or rename can deadlock
		// (one pinned source blocking the other's way forever).
		return errConfig("VCA rename table needs associativity >= 2 to avoid deadlock")
	}
	if c.Rename == RenameConventional {
		nwin, logical := c.convFile()
		if c.Window == WindowConventional && nwin < 1 {
			return infeasibleError(fmt.Sprintf("core: %d physical registers cannot hold any register window (need >= %d)",
				c.PhysRegs, 64+isa.GlobalSlots+isa.WindowSlots))
		}
		if need := c.Threads * logical; c.PhysRegs < need+1 {
			return infeasibleError(fmt.Sprintf("rename: conventional machine needs > %d physical registers for %d threads × %d logical, have %d",
				need, c.Threads, logical, c.PhysRegs))
		}
	}
	return nil
}

// convFile sizes a conventional machine's per-thread logical register
// file. Without windows it is the architectural registers; with
// WindowConventional it is the globals plus nwin whole windows, as many
// as fit in the register file after 64 rename registers (whatever the
// thread count).
func (c *Config) convFile() (nwin, logical int) {
	if c.Window != WindowConventional {
		return 0, isa.NumArchRegs
	}
	nwin = (c.PhysRegs - 64 - isa.GlobalSlots) / isa.WindowSlots
	return nwin, isa.GlobalSlots + nwin*isa.WindowSlots
}

type configError string

func errConfig(s string) error      { return configError(s) }
func (e configError) Error() string { return "core: " + string(e) }

// infeasibleError is a Validate refusal that is ErrInfeasible.
type infeasibleError string

func (e infeasibleError) Error() string      { return string(e) }
func (infeasibleError) Is(target error) bool { return target == ErrInfeasible }
