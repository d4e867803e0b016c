// Package experiments drives the paper's evaluation (§4): it builds the
// machine configurations of Figures 4-8, runs the workload suite on
// them, and reduces the results to the numbers the paper plots.
//
// The pieces, one file each:
//
//   - arch.go — the Arch enumeration (baseline, conventional/ideal
//     register windows, VCA flat/windowed) and its Config builder, the
//     single place the paper's Table 1 machines are parameterized. An
//     Arch that cannot operate at a requested register-file size
//     reports ok=false ("No Baseline" in the figures).
//   - regwin.go — the single-thread register-window sweeps
//     (Figures 4-6) and their weighted cache-access reduction (§4.3).
//   - smt.go — multiprogrammed SMT sweeps (Figures 7-8) over the
//     clustered workload pairings.
//   - counterpoint.go — the counter-oracle gate's machine matrix, whose
//     fast-forwarded cells start from functional checkpoints.
//
// Every simulation funnels through the package-wide simcache.Runner
// and optional result cache (SetJobs/SetCache), so sweeps parallelize
// and memoize uniformly. Consumers: cmd/experiments (human-readable
// tables), the repository benchmark harness (bench_test.go), and the
// sweep service (internal/server), which reuses the Arch builder for
// its HTTP job API.
package experiments

import (
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

// Arch enumerates the compared architectures.
type Arch int

const (
	// ArchBaseline is the conventional non-windowed machine (flat ABI).
	ArchBaseline Arch = iota
	// ArchConvWindow is the conventional register-window machine with
	// trap-based overflow handling (§4.1).
	ArchConvWindow
	// ArchIdealWindow handles window spills/fills instantaneously without
	// cache traffic (the lower bound of §4.1).
	ArchIdealWindow
	// ArchVCAWindow is VCA running windowed binaries.
	ArchVCAWindow
	// ArchVCAFlat is VCA running flat binaries (the SMT study of §4.2).
	ArchVCAFlat
)

func (a Arch) String() string {
	switch a {
	case ArchBaseline:
		return "baseline"
	case ArchConvWindow:
		return "register window"
	case ArchIdealWindow:
		return "ideal"
	case ArchVCAWindow:
		return "vca"
	case ArchVCAFlat:
		return "vca (flat)"
	}
	return "?"
}

// ABI returns the binary flavor the architecture executes.
func (a Arch) ABI() minic.ABI {
	switch a {
	case ArchConvWindow, ArchIdealWindow, ArchVCAWindow:
		return minic.ABIWindowed
	}
	return minic.ABIFlat
}

// Config builds the core configuration, or ok=false when the architecture
// cannot operate at this size (the paper's "No Baseline" regions).
func (a Arch) Config(threads, physRegs, dl1Ports int) (core.Config, bool) {
	var cfg core.Config
	switch a {
	case ArchBaseline:
		cfg = core.DefaultConfig(core.RenameConventional, core.WindowNone, threads, physRegs)
		if physRegs <= threads*64 {
			return cfg, false
		}
	case ArchConvWindow:
		cfg = core.DefaultConfig(core.RenameConventional, core.WindowConventional, threads, physRegs)
		if (physRegs-64-32)/32 < 1 {
			return cfg, false
		}
	case ArchIdealWindow:
		cfg = core.DefaultConfig(core.RenameVCA, core.WindowIdeal, threads, physRegs)
	case ArchVCAWindow:
		cfg = core.DefaultConfig(core.RenameVCA, core.WindowVCA, threads, physRegs)
	case ArchVCAFlat:
		cfg = core.DefaultConfig(core.RenameVCA, core.WindowNone, threads, physRegs)
	}
	cfg.Hier.DL1Ports = dl1Ports
	return cfg, true
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
	cfg, ok := arch.Config(1, physRegs, dl1Ports)
	if !ok {
		return Metrics{}, nil
	}
	prog, err := b.Build(arch.ABI())
	if err != nil {
		return Metrics{}, err
	}
	return runMachine(cfg, []*program.Program{prog}, arch.ABI() == minic.ABIWindowed, stopAfter)
}

// RunSMT runs a multiprogrammed workload.
func RunSMT(benches []workload.Benchmark, arch Arch, physRegs, dl1Ports int, stopAfter uint64) (Metrics, error) {
	cfg, ok := arch.Config(len(benches), physRegs, dl1Ports)
	if !ok {
		return Metrics{}, nil
	}
	progs := make([]*program.Program, len(benches))
	for i, b := range benches {
		p, err := b.Build(arch.ABI())
		if err != nil {
			return Metrics{}, err
		}
		progs[i] = p
	}
	return runMachine(cfg, progs, arch.ABI() == minic.ABIWindowed, stopAfter)
}

func runMachine(cfg core.Config, progs []*program.Program, windowed bool, stopAfter uint64) (Metrics, error) {
	cfg.StopAfter = stopAfter
	cfg.MaxCycles = 1 << 34
	res, _, _, err := cache.RunMachine(cfg, progs, windowed, nil)
	if err != nil {
		return Metrics{}, err
	}
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
