// Package experiments drives the paper's evaluation (§4): it builds the
// machine configurations of Figures 4-8, runs the workload suite on
// them, and reduces the results to the numbers the paper plots.
//
// The pieces, one file each:
//
//   - arch.go — the machine table: the paper's five machines (baseline,
//     conventional/ideal register windows, VCA flat/windowed), each with
//     its API name, figure label, rename model and window model. Arch
//     names a row; Arch.Config builds its Table 1 configuration and
//     Arch.Build a whole cell (configuration plus programs), and an
//     Arch that core refuses to build at a requested register-file size
//     (core.ErrInfeasible) reports ok=false ("No Baseline" in the
//     figures). The vca facade, the sweep service and cmd/vcasim all
//     name machines through this table.
//   - regwin.go — the single-thread register-window sweeps
//     (Figures 4-6) and their weighted cache-access reduction (§4.3).
//   - smt.go — multiprogrammed SMT sweeps (Figures 7-8) over the
//     clustered workload pairings.
//   - counterpoint.go — the counter-oracle gate's machine matrix, whose
//     fast-forwarded cells start from functional checkpoints.
//
// Every cell is built by Arch.Build and simulated by the package-wide
// result cache's Run on the package-wide simcache.Runner
// (SetCache/SetJobs), so sweeps parallelize and memoize uniformly.
// Consumers: cmd/experiments (human-readable tables), the repository
// benchmark harness (bench_test.go), and the sweep service
// (internal/server), which resolves its HTTP job API's arch names
// through ArchByName and builds its cells with Arch.Build.
package experiments

import (
	"errors"
	"fmt"

	"vca/internal/core"
	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/simcache"
	"vca/internal/workload"
)

// Package-wide execution state: the shared job runner and the optional
// result cache. Both default to "plain": GOMAXPROCS workers, no
// memoization. cmd/experiments wires the -jobs/-cache* flags here; the
// public sweep API is unchanged.
var (
	runner = simcache.Runner{}
	cache  *simcache.Cache // nil = simulate every job
)

// SetJobs sets the worker count of every sweep (0 restores GOMAXPROCS).
func SetJobs(n int) { runner.Jobs = n }

// SetCache installs the result cache consulted by every simulation job
// (nil disables memoization).
func SetCache(c *simcache.Cache) { cache = c }

// Arch names one of the paper's five machines: a row of archTable.
type Arch int

const (
	// ArchBaseline is the conventional non-windowed machine (Table 1).
	ArchBaseline Arch = iota
	// ArchConvWindow is the conventional register-window machine with
	// trap-based overflow handling (§4.1).
	ArchConvWindow
	// ArchIdealWindow handles window spills/fills instantaneously without
	// cache traffic (the lower bound of §4.1).
	ArchIdealWindow
	// ArchVCAFlat is VCA running flat binaries (the SMT study of §4.2).
	ArchVCAFlat
	// ArchVCAWindow is VCA running windowed binaries (§2.1.5).
	ArchVCAWindow
)

// archTable is the one machine table, in API order (ArchNames). name is
// the API name (the sweep service, cmd/vcasim -arch, stats headers);
// label names the machine's series in the figures. The binary flavor
// follows from the window model.
var archTable = [...]struct {
	name, label string
	rename      core.RenameModel
	window      core.WindowModel
}{
	ArchBaseline:    {"baseline", "baseline", core.RenameConventional, core.WindowNone},
	ArchConvWindow:  {"conv-windowed", "register window", core.RenameConventional, core.WindowConventional},
	ArchIdealWindow: {"ideal-windowed", "ideal", core.RenameVCA, core.WindowIdeal},
	ArchVCAFlat:     {"vca-flat", "vca (flat)", core.RenameVCA, core.WindowNone},
	ArchVCAWindow:   {"vca-windowed", "vca", core.RenameVCA, core.WindowVCA},
}

// ArchNames returns every machine's API name, in table order.
func ArchNames() []string {
	names := make([]string, len(archTable))
	for i, row := range archTable {
		names[i] = row.name
	}
	return names
}

// ArchByName returns the machine with the given API name.
func ArchByName(name string) (Arch, bool) {
	for i, row := range archTable {
		if row.name == name {
			return Arch(i), true
		}
	}
	return 0, false
}

func (a Arch) known() bool { return a >= 0 && int(a) < len(archTable) }

// String returns the machine's API name ("?" for an Arch outside the
// table).
func (a Arch) String() string {
	if !a.known() {
		return "?"
	}
	return archTable[a].name
}

// Label returns the machine's series name in the figures.
func (a Arch) Label() string {
	if !a.known() {
		return "?"
	}
	return archTable[a].label
}

// Windowed reports whether the machine executes windowed binaries.
func (a Arch) Windowed() bool { return archTable[a].window.Windowed() }

// ABI returns the binary flavor the architecture executes.
func (a Arch) ABI() minic.ABI {
	if a.Windowed() {
		return minic.ABIWindowed
	}
	return minic.ABIFlat
}

// Config builds the machine's Table 1 configuration. ok=false exactly
// when core refuses to build it at this size (core.ErrInfeasible): the
// paper's "No Baseline" regions.
func (a Arch) Config(threads, physRegs, dl1Ports int) (core.Config, bool) {
	row := archTable[a]
	cfg := core.DefaultConfig(row.rename, row.window, threads, physRegs)
	cfg.Hier.DL1Ports = dl1Ports
	return cfg, !errors.Is(cfg.Validate(), core.ErrInfeasible)
}

// Build resolves one cell of the evaluation to what the simulator runs:
// the machine's configuration for one thread per benchmark, ending once
// any thread commits stopAfter instructions (0 = run to completion),
// and each benchmark built in the machine's ABI. ok=false, with no
// programs built, is Config's "No Baseline" answer. Every sweep, the
// counterpoint matrix and the sweep service build their cells here.
func (a Arch) Build(benches []workload.Benchmark, physRegs, dl1Ports int, stopAfter uint64) (cfg core.Config, progs []*program.Program, ok bool, err error) {
	if cfg, ok = a.Config(len(benches), physRegs, dl1Ports); !ok {
		return cfg, nil, false, nil
	}
	cfg.StopAfter = stopAfter
	cfg.MaxCycles = 1 << 34
	progs = make([]*program.Program, len(benches))
	for i, b := range benches {
		if progs[i], err = b.Build(a.ABI()); err != nil {
			return cfg, nil, false, err
		}
	}
	return cfg, progs, true, nil
}

// Metrics are the per-run quantities the figures reduce.
type Metrics struct {
	Valid     bool
	Cycles    uint64
	Committed uint64
	CPI       float64
	// AccPerInst is total DL1 accesses (speculative included, all causes)
	// divided by committed instructions.
	AccPerInst float64
	// PerThreadCPI / PerThreadAPI support the weighted SMT metrics.
	PerThreadCPI []float64
	PerThreadAPI []float64
	WindowTraps  uint64
	Spills       uint64
	Fills        uint64
}

// RunSingle runs one benchmark alone on an architecture.
func RunSingle(b workload.Benchmark, arch Arch, physRegs, dl1Ports int, stopAfter uint64) (Metrics, error) {
	return RunSMT([]workload.Benchmark{b}, arch, physRegs, dl1Ports, stopAfter)
}

// RunSMT runs a multiprogrammed workload, one benchmark per thread.
func RunSMT(benches []workload.Benchmark, arch Arch, physRegs, dl1Ports int, stopAfter uint64) (Metrics, error) {
	cfg, progs, ok, err := arch.Build(benches, physRegs, dl1Ports, stopAfter)
	if !ok || err != nil {
		return Metrics{}, err
	}
	e, _, err := cache.Run(cfg, progs, nil)
	if err != nil {
		return Metrics{}, err
	}
	res := e.Result
	var committed uint64
	for _, t := range res.Threads {
		committed += t.Committed
	}
	if committed == 0 {
		return Metrics{}, fmt.Errorf("experiments: no instructions committed")
	}
	met := Metrics{
		Valid:       true,
		Cycles:      res.Cycles,
		Committed:   committed,
		CPI:         float64(res.Cycles) / float64(committed),
		AccPerInst:  float64(res.DL1Accesses()) / float64(committed),
		WindowTraps: res.WindowTraps,
		Spills:      res.SpillsIssued,
		Fills:       res.FillsIssued,
	}
	for _, t := range res.Threads {
		if t.Committed == 0 {
			return Metrics{}, fmt.Errorf("experiments: a thread committed nothing")
		}
		met.PerThreadCPI = append(met.PerThreadCPI, float64(res.Cycles)/float64(t.Committed))
	}
	// Per-thread cache accesses are not separable in a shared cache; the
	// weighted cache metric uses each thread's share approximated by its
	// committed fraction of the run's accesses-per-instruction.
	for _, t := range res.Threads {
		met.PerThreadAPI = append(met.PerThreadAPI, met.AccPerInst*float64(t.Committed)/float64(committed)*float64(len(res.Threads)))
	}
	return met, nil
}

// parallelFor dispatches fn(i) for i in [0,n) through the package's
// shared runner (simcache.Runner): panic-safe jobs, deterministic
// lowest-index-first error aggregation, -jobs-controlled parallelism.
func parallelFor(n int, fn func(i int) error) error {
	return runner.Run(n, fn)
}
