// Package verify implements the config-space lockstep sweep: it samples
// randomized machine configurations and randomized (dual-ABI-safe)
// programs, runs each pair on the cycle-level core with co-simulation
// and the per-cycle invariant checker enabled, and — when a run
// diverges from the functional emulator or trips an invariant — shrinks
// the failing (machine, program) pair to a minimal reproduction that
// serializes as JSON. `cmd/experiments -sweep` is the command-line
// entry point; docs/VERIFICATION.md documents the repro format. The
// sweep driver (Sweep) takes a per-case Judge, so the counter oracle
// (internal/counterpoint) runs its refute-and-refine hunt on it too.
package verify

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"vca/internal/asm"
	"vca/internal/core"
	"vca/internal/emu"
	"vca/internal/progen"
	"vca/internal/program"
	"vca/internal/simcache"
)

// MachineSpec is the JSON-serializable description of one sampled
// machine configuration. Unset size fields take the paper's Table 1
// defaults (DefaultConfig).
type MachineSpec struct {
	Rename   string `json:"rename"` // "conventional" | "vca"
	Window   string `json:"window"` // "none" | "conv" | "ideal" | "vca"
	Threads  int    `json:"threads"`
	PhysRegs int    `json:"phys_regs"`
	Width    int    `json:"width,omitempty"`
	ROBSize  int    `json:"rob,omitempty"`
	IQSize   int    `json:"iq,omitempty"`
	LSQSize  int    `json:"lsq,omitempty"`
	ASTQSize int    `json:"astq,omitempty"`

	// VCA rename-table geometry (ignored for conventional rename).
	TableSets  int `json:"table_sets,omitempty"`
	TableWays  int `json:"table_ways,omitempty"`
	TablePorts int `json:"table_ports,omitempty"`
	ASTQWrites int `json:"astq_writes,omitempty"`

	// Data-cache geometry.
	DL1KB     int `json:"dl1_kb,omitempty"`
	DL1Ways   int `json:"dl1_ways,omitempty"`
	BlockBits int `json:"block_bits,omitempty"`
	DL1Ports  int `json:"dl1_ports,omitempty"`
}

// ProgramSpec pins the generated workload: the generator configuration
// plus the random seed. Threads come from the machine spec.
type ProgramSpec struct {
	Seed int64         `json:"seed"`
	Gen  progen.Config `json:"gen"`
}

// Repro is one shrunk failure: the minimal machine/program pair that
// still fails, plus the failure the original pair produced.
type Repro struct {
	Machine MachineSpec `json:"machine"`
	Program ProgramSpec `json:"program"`
	Failure string      `json:"failure"`
}

// Windowed reports whether the machine runs windowed-ABI binaries: the
// window model's rule (core.WindowModel.Windowed), false for an unknown
// model.
func (s MachineSpec) Windowed() bool {
	cfg, err := s.coreConfig()
	return err == nil && cfg.Window.Windowed()
}

// coreConfig translates the spec into a core configuration with
// co-simulation and invariant checking enabled.
func (s MachineSpec) coreConfig() (core.Config, error) {
	var rm core.RenameModel
	switch s.Rename {
	case "conventional":
		rm = core.RenameConventional
	case "vca":
		rm = core.RenameVCA
	default:
		return core.Config{}, fmt.Errorf("verify: unknown rename model %q", s.Rename)
	}
	var wm core.WindowModel
	switch s.Window {
	case "none":
		wm = core.WindowNone
	case "conv":
		wm = core.WindowConventional
	case "ideal":
		wm = core.WindowIdeal
	case "vca":
		wm = core.WindowVCA
	default:
		return core.Config{}, fmt.Errorf("verify: unknown window model %q", s.Window)
	}
	cfg := core.DefaultConfig(rm, wm, s.Threads, s.PhysRegs)
	set := func(dst *int, v int) {
		if v != 0 {
			*dst = v
		}
	}
	set(&cfg.Width, s.Width)
	set(&cfg.ROBSize, s.ROBSize)
	set(&cfg.IQSize, s.IQSize)
	set(&cfg.LSQSize, s.LSQSize)
	set(&cfg.ASTQSize, s.ASTQSize)
	set(&cfg.VCA.Sets, s.TableSets)
	set(&cfg.VCA.Ways, s.TableWays)
	set(&cfg.VCA.Ports, s.TablePorts)
	set(&cfg.VCA.ASTQWrites, s.ASTQWrites)
	if s.DL1KB != 0 {
		cfg.Hier.DL1.SizeBytes = s.DL1KB << 10
	}
	set(&cfg.Hier.DL1.Ways, s.DL1Ways)
	set(&cfg.Hier.DL1.BlockBits, s.BlockBits)
	set(&cfg.Hier.DL1Ports, s.DL1Ports)
	cfg.CoSim = true
	cfg.Check = true
	cfg.MaxCycles = 50_000_000
	return cfg, nil
}

// programs generates, assembles, and functionally executes the per-thread
// programs, returning them with their reference outputs.
func (p ProgramSpec) programs(threads int, windowed bool) ([]*program.Program, []string, error) {
	srcs := progen.GenerateSMT(rand.New(rand.NewSource(p.Seed)), p.Gen, threads)
	progs := make([]*program.Program, threads)
	want := make([]string, threads)
	for i, src := range srcs {
		prog, err := asm.Assemble(src)
		if err != nil {
			return nil, nil, fmt.Errorf("verify: generated program %d does not assemble: %w", i, err)
		}
		m := emu.New(prog, emu.Config{Windowed: windowed, MaxInsts: 10_000_000})
		reason, err := m.Run()
		if err != nil || reason != emu.StopExited {
			return nil, nil, fmt.Errorf("verify: reference run of program %d: %v (%v)", i, err, reason)
		}
		progs[i] = prog
		want[i] = m.Output.String()
	}
	return progs, want, nil
}

// RunOne executes one (machine, program) pair in lockstep with the
// functional emulator. A nil result means the run committed every
// instruction in agreement with the reference, produced identical
// output on every thread, and never violated a cycle-level invariant.
func RunOne(ms MachineSpec, ps ProgramSpec) error {
	_, err := run(ms, ps, true)
	return err
}

// run builds the pair's machine and runs it to completion. In lockstep
// (co-simulation and the invariant checker on) every thread's output
// must also match its reference run; otherwise the run is a plain
// measurement with both checks off.
func run(ms MachineSpec, ps ProgramSpec, lockstep bool) (*core.Result, error) {
	cfg, err := ms.coreConfig()
	if err != nil {
		return nil, err
	}
	cfg.CoSim, cfg.Check = lockstep, lockstep
	progs, want, err := ps.programs(ms.Threads, ms.Windowed())
	if err != nil {
		return nil, err
	}
	m, err := core.New(cfg, progs, ms.Windowed())
	if err != nil {
		return nil, fmt.Errorf("verify: machine construction: %w", err)
	}
	res, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("verify: %s/%s: %w", ms.Rename, ms.Window, err)
	}
	for i := range progs {
		if got := res.Threads[i].Output; lockstep && got != want[i] {
			return nil, fmt.Errorf("verify: %s/%s thread %d output %q, want %q",
				ms.Rename, ms.Window, i, got, want[i])
		}
	}
	return res, nil
}

// Constructs reports whether the spec describes a machine core would
// build (core.Config.Validate). The sampler, the shrinker and the
// counterpoint planner use it to reject out-of-range configurations,
// e.g. too few physical registers for the thread count.
func (s MachineSpec) Constructs() bool {
	cfg, err := s.coreConfig()
	return err == nil && cfg.Validate() == nil
}

// SampleSpec draws one valid random machine configuration and a program
// configuration stressing it.
func SampleSpec(r *rand.Rand) (MachineSpec, ProgramSpec) {
	var ms MachineSpec
	for {
		ms = MachineSpec{
			Threads: []int{1, 1, 2, 4}[r.Intn(4)],
			Width:   []int{1, 2, 4, 8}[r.Intn(4)],
			ROBSize: 32 << r.Intn(3),
			IQSize:  16 << r.Intn(2),
			LSQSize: 16 << r.Intn(2),

			DL1KB:     4 << r.Intn(5),
			DL1Ways:   1 << r.Intn(3),
			BlockBits: 5 + r.Intn(2),
			DL1Ports:  1 + r.Intn(2),
		}
		if r.Intn(2) == 0 {
			ms.Rename = "conventional"
			ms.Window = []string{"none", "conv"}[r.Intn(2)]
			// Enough physical registers for every thread's logical file
			// plus some number of in-flight destinations.
			ms.PhysRegs = 65*ms.Threads + 32*(1+r.Intn(5))
			if ms.Window == "conv" {
				if ms.Threads > 2 {
					continue // windowed SMT beyond 2 threads: not a paper config
				}
				// Room for at least one resident window per thread.
				ms.PhysRegs = 96 + 32*(ms.Threads+r.Intn(5)) + 65*ms.Threads
			}
		} else {
			ms.Rename = "vca"
			ms.Window = []string{"none", "ideal", "vca"}[r.Intn(3)]
			ms.PhysRegs = 40 + r.Intn(260) // the register cache can be tiny
			ms.ASTQSize = 8 << r.Intn(2)
			ms.TableSets = 16 << r.Intn(3)
			ms.TableWays = 2 + r.Intn(5)
			ms.TablePorts = 4 + r.Intn(5)
			ms.ASTQWrites = 1 + r.Intn(4)
		}
		if ms.Constructs() {
			break
		}
	}

	ps := ProgramSpec{
		Seed: r.Int63(),
		Gen: progen.Config{
			Helpers:  r.Intn(5),
			Blocks:   8 + r.Intn(25),
			Loops:    r.Intn(2) == 0,
			Aliasing: r.Intn(2) == 0,
		},
	}
	if ms.Windowed() && r.Intn(2) == 0 {
		ps.Gen.WindowLadder = 2 + r.Intn(6)
	}
	if r.Intn(2) == 0 {
		ps.Gen.Recursion = true
		ps.Gen.MaxRecDepth = 2 + r.Intn(9)
	}
	return ms, ps
}

// Case is one planned sweep run: a sampled machine and the program
// spec (with its pinned seed) to run on it.
type Case struct {
	Machine MachineSpec `json:"machine"`
	Program ProgramSpec `json:"program"`
}

// Plan samples the sweep's n cases up front from a fixed seed. The
// sampling pass is strictly sequential over one RNG, so the planned
// cases — including every program's repro seed — are a pure function
// of (seed, n), independent of how many workers later execute them.
// (The previous Sweep consumed a shared RNG in dispatch order, which
// would have tied repro seeds to worker scheduling once the sweep ran
// in parallel.)
func Plan(seed int64, n int) []Case {
	r := rand.New(rand.NewSource(seed))
	out := make([]Case, n)
	for i := range out {
		out[i].Machine, out[i].Program = SampleSpec(r)
	}
	return out
}

// Finding is one way a case failed its judge (a lockstep divergence or
// a refuted predicate), with the still-fails test Shrink re-runs on
// smaller pairs.
type Finding struct {
	Failure string                              // what the original case did wrong
	Fails   func(MachineSpec, ProgramSpec) bool // does a smaller pair still fail this way?
}

// A Judge runs planned case i and returns its findings, none when the
// case passes. An error means the case could not be judged at all.
type Judge func(i int, c Case) ([]Finding, error)

// runOne is indirected for worker-independence tests.
var runOne = RunOne

// Lockstep judges a case by running it in lockstep with the functional
// emulator (RunOne); a divergence is its one finding.
func Lockstep(_ int, c Case) ([]Finding, error) {
	err := runOne(c.Machine, c.Program)
	if err == nil {
		return nil, nil
	}
	return []Finding{{
		Failure: err.Error(),
		Fails:   func(m MachineSpec, p ProgramSpec) bool { return runOne(m, p) != nil },
	}}, nil
}

// errPanicked is the reported error of a case whose judge or shrink
// panicked; Sweep's returned error carries the panic itself.
var errPanicked = errors.New("verify: judge panicked")

// Sweep judges every case on the shared job runner (jobs=0 means
// GOMAXPROCS workers), shrinks each finding to a minimal repro with the
// finding's own still-fails test, and hands each case's repros and
// judge error to report, one call at a time in case-index order,
// whatever order the cases finish in. The returned error aggregates
// harness failures (a judge error or a panic, never a mere finding),
// lowest case index first.
func Sweep(cases []Case, jobs int, judge Judge, report func(i int, repros []Repro, err error)) error {
	n := len(cases)
	repros := make([][]Repro, n)
	errs := make([]error, n)

	var (
		mu   sync.Mutex
		done = make([]bool, n)
		next = 0
	)
	tell := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done[i] = true
		for ; next < n && done[next]; next++ {
			report(next, repros[next], errs[next])
		}
	}

	runner := simcache.Runner{Jobs: jobs, KeepGoing: true}
	return runner.Run(n, func(i int) error {
		errs[i] = errPanicked
		defer tell(i) // also on panic, so in-order delivery never stalls
		c := cases[i]
		findings, err := judge(i, c)
		for _, f := range findings {
			m, p := Shrink(c.Machine, c.Program, f.Fails)
			repros[i] = append(repros[i], Repro{Machine: m, Program: p, Failure: f.Failure})
		}
		errs[i] = err
		return err
	})
}
