// Package vca is the public facade of the Virtual Context Architecture
// reproduction: it compiles (or assembles) programs for the simulated ISA
// and runs them on cycle-level machine models with either a conventional
// rename substrate or the VCA substrate of Oehmke et al., "How to Fake
// 1000 Registers" (MICRO-38, 2005).
//
// Quick start:
//
//	prog, _ := vca.CompileC(mySource, vca.ABIWindowed)
//	res, _ := vca.Run(vca.MachineSpec{
//	        Arch:     vca.VCAWindowed,
//	        PhysRegs: 192,
//	}, prog)
//	fmt.Println(res.Output(0), res.IPC())
//
// Beyond compile-and-run, the facade covers the repository's
// measurement workflow end to end:
//
//   - MachineSpec.StopAfter bounds detailed simulation;
//     MachineSpec.FastForward skips a warmup prefix on the fast
//     functional engine before detailed simulation begins, and
//     MachineSpec.Restore starts from a saved Checkpoint instead
//     (DESIGN.md §12).
//   - Result carries per-thread output, cycle/commit counts, and—when
//     a run is created with observability enabled—the full event-
//     counter registry (docs/OBSERVABILITY.md) for stats dumps and
//     timeline recording.
//   - MachineSpec.Cache (opened with OpenResultCache) memoizes runs in
//     the on-disk result store (internal/simcache), the same
//     content-addressed cache the experiment harness and the sweep
//     service share. Every run, memoized or not, takes that store's one
//     path to the simulator (simcache.Cache.Run; a nil cache simulates
//     directly), the path every figure, sweep-service cell and
//     counterpoint cell takes.
//
// The deeper layers remain available under internal/ for the experiment
// harness; this package exposes the stable surface a downstream user
// needs: compile, assemble, configure, run, measure.
package vca

import (
	"fmt"
	"io"
	"os"

	"vca/internal/asm"
	"vca/internal/core"
	"vca/internal/emu"
	"vca/internal/experiments"
	"vca/internal/metrics"
	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/simcache"
)

// ABI selects the calling convention for compiled programs.
type ABI = minic.ABI

// ABI values.
const (
	ABIFlat     = minic.ABIFlat
	ABIWindowed = minic.ABIWindowed
)

// Program is a loadable executable image.
type Program = program.Program

// CompileC compiles mini-C source (see internal/minic for the language)
// under the given ABI.
func CompileC(source string, abi ABI) (*Program, error) {
	return minic.Build("program", source, abi)
}

// Assemble assembles assembly source (see internal/asm for the syntax).
func Assemble(source string) (*Program, error) {
	return asm.Assemble(source)
}

// Arch names the machine models of the paper's evaluation: a row of
// the one machine table (internal/experiments), whose String is the
// API name (cmd/vcasim -arch, the sweep service).
type Arch = experiments.Arch

const (
	// Baseline is the conventional non-windowed out-of-order machine
	// (Table 1). Runs flat-ABI binaries.
	Baseline = experiments.ArchBaseline
	// ConvWindowed expands the register file into hardware windows with
	// trap-based overflow/underflow handling (§4.1). Windowed binaries.
	ConvWindowed = experiments.ArchConvWindow
	// IdealWindowed handles window spills/fills instantly without cache
	// traffic — the §4.1 lower bound. Windowed binaries.
	IdealWindowed = experiments.ArchIdealWindow
	// VCAFlat is the virtual context architecture running flat binaries
	// (the SMT study of §4.2).
	VCAFlat = experiments.ArchVCAFlat
	// VCAWindowed is the virtual context architecture with register
	// windows (§2.1.5). Windowed binaries.
	VCAWindowed = experiments.ArchVCAWindow
)

// MachineSpec configures a simulation. Zero values take the paper's
// Table 1 defaults.
type MachineSpec struct {
	Arch     Arch
	PhysRegs int // default 256
	Threads  int // default = number of programs
	DL1Ports int // default 2
	// StopAfter ends the run once any thread commits this many
	// instructions (0 = run to completion).
	StopAfter uint64
	// DisableCoSim turns off the per-instruction architectural cross-check
	// against the functional emulator (on by default).
	DisableCoSim bool
	// Check runs the cycle-level invariant checker after every simulated
	// cycle (free-list conservation, queue age order, counter identities;
	// see docs/VERIFICATION.md). Off by default; a violation aborts Run.
	Check bool
	// Trace, when non-nil, receives one line per committed instruction.
	Trace io.Writer
	// ChromeTrace, when non-nil, records a Chrome trace-event timeline of
	// the run (per-uop pipeline-stage slices, stall instants, occupancy
	// counters). Write it out afterwards with TraceRecorder.WriteJSON and
	// load the file at ui.perfetto.dev or chrome://tracing. Timeline
	// recording buffers events in memory — bound the run with StopAfter.
	ChromeTrace *TraceRecorder
	// Cache, when non-nil, memoizes the run in a content-addressed
	// on-disk result cache (see internal/simcache and the "Result
	// cache" section of EXPERIMENTS.md): an identical (config,
	// programs, starting checkpoints) triple is answered from disk
	// without simulating, and concurrent identical runs simulate once.
	// Ignored — the run always simulates — when Trace, ChromeTrace, or
	// Check is set, because a replayed result has no live metrics
	// registry or event stream (Result.Metrics is nil on a cache hit).
	// A replayed result is shared with every other hit on the same run:
	// treat it as read-only.
	Cache *ResultCache
	// FastForward skips the first N instructions of every thread at
	// functional speed (tens of MIPS, emu.FastRun) and transplants the
	// resulting architectural state into the detailed machine, which then
	// simulates from there. StopAfter still counts detailed commits only.
	// Mutually exclusive with Restore and ChromeTrace.
	FastForward uint64
	// Restore starts thread i from Restore[i] (a checkpoint previously
	// produced by FastForward or read from a Checkpoint file) instead
	// of architectural reset; nil entries start from reset. Mutually
	// exclusive with FastForward and ChromeTrace.
	Restore []*Checkpoint
}

// Checkpoint re-exports the serializable, content-addressed
// architectural-state image (see internal/emu): the handoff format
// between the fast functional engine and the detailed core.
type Checkpoint = emu.Checkpoint

// FastForward executes exactly n instructions of p on the fast
// functional engine and returns the resulting checkpoint. It fails if
// the program exits or faults before the budget is reached.
func FastForward(p *Program, windowed bool, n uint64) (*Checkpoint, error) {
	return emu.FastForward(p, windowed, n)
}

// LoadCheckpoint reads a checkpoint file written by SaveCheckpoint,
// verifying its schema version and content checksum.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return emu.DecodeCheckpoint(f)
}

// SaveCheckpoint writes a checkpoint as a checksummed JSON file.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ck.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ResultCache re-exports the content-addressed simulation result cache;
// open one with OpenResultCache and share it across Run calls.
type ResultCache = simcache.Cache

// OpenResultCache creates (if needed) and opens a result cache
// directory for MachineSpec.Cache.
func OpenResultCache(dir string) (*ResultCache, error) { return simcache.Open(dir) }

// TraceRecorder re-exports the Chrome trace-event recorder; see
// MachineSpec.ChromeTrace and docs/OBSERVABILITY.md.
type TraceRecorder = metrics.TraceRecorder

// NewTraceRecorder returns an empty timeline recorder for
// MachineSpec.ChromeTrace.
func NewTraceRecorder() *TraceRecorder { return metrics.NewTraceRecorder() }

// StatsHeader re-exports the run-identification header of a stats dump;
// see Result.WriteStats.
type StatsHeader = metrics.Header

// Result re-exports the core simulation result.
type Result struct {
	*core.Result
}

// Output returns the program output of thread t.
func (r Result) Output(t int) string { return r.Threads[t].Output }

// WriteStats writes the run's full event-counter dump as a deterministic
// JSON document (see docs/OBSERVABILITY.md for the counter catalogue).
// hdr may be nil.
func (r Result) WriteStats(w io.Writer, hdr *StatsHeader) error {
	return r.Metrics.WriteJSON(w, hdr)
}

// WriteStatsCSV writes the counter dump as CSV (one row per metric;
// histogram buckets are omitted — use WriteStats for distributions).
func (r Result) WriteStatsCSV(w io.Writer) error {
	return r.Metrics.WriteCSV(w)
}

// Run executes one program per hardware thread on the specified machine.
func Run(spec MachineSpec, progs ...*Program) (Result, error) {
	if len(progs) == 0 {
		return Result{}, fmt.Errorf("vca: no programs")
	}
	if spec.Threads == 0 {
		spec.Threads = len(progs)
	}
	if spec.PhysRegs == 0 {
		spec.PhysRegs = 256
	}
	if spec.DL1Ports == 0 {
		spec.DL1Ports = 2
	}
	if _, known := experiments.ArchByName(spec.Arch.String()); !known {
		return Result{}, fmt.Errorf("vca: unknown architecture %v", spec.Arch)
	}
	// An infeasible machine (ok=false) is left for core.New to refuse,
	// with the reason.
	cfg, _ := spec.Arch.Config(spec.Threads, spec.PhysRegs, spec.DL1Ports)
	cfg.StopAfter = spec.StopAfter
	cfg.CoSim = !spec.DisableCoSim
	cfg.Check = spec.Check
	cfg.TraceWriter = spec.Trace
	cfg.ChromeTrace = spec.ChromeTrace
	restores := spec.Restore
	if spec.FastForward > 0 {
		if len(spec.Restore) > 0 {
			return Result{}, fmt.Errorf("vca: FastForward and Restore are mutually exclusive")
		}
		restores = make([]*Checkpoint, len(progs))
		for i, p := range progs {
			ck, err := FastForward(p, spec.Arch.Windowed(), spec.FastForward)
			if err != nil {
				return Result{}, fmt.Errorf("vca: fast-forwarding thread %d: %w", i, err)
			}
			restores[i] = ck
		}
	}
	if len(restores) > 0 {
		if spec.ChromeTrace != nil {
			return Result{}, fmt.Errorf("vca: ChromeTrace cannot record a run that starts mid-program (drop FastForward/Restore or the recorder)")
		}
		if len(restores) > len(progs) {
			return Result{}, fmt.Errorf("vca: %d restore checkpoints for %d threads", len(restores), len(progs))
		}
	}
	cache := spec.Cache
	if spec.Trace != nil || spec.ChromeTrace != nil || spec.Check {
		cache = nil // only a live run has an event stream and a registry
	}
	e, _, err := cache.Run(cfg, progs, restores)
	if err != nil {
		return Result{}, err
	}
	return Result{e.Result}, nil
}

// Emulate runs a program on the functional (non-cycle-accurate) emulator
// and returns its output and dynamic instruction count.
func Emulate(p *Program, windowed bool) (output string, insts uint64, err error) {
	m := emu.New(p, emu.Config{Windowed: windowed})
	reason, err := m.Run()
	if err != nil {
		return "", 0, err
	}
	if reason != emu.StopExited {
		return "", 0, fmt.Errorf("vca: emulation stopped: %v", reason)
	}
	return m.Output.String(), m.Stats.Insts, nil
}
