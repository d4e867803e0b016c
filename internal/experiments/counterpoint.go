package experiments

// counterpoint.go — the counter-oracle's golden matrix: the same
// 15-workload × 3-architecture grid the scheduler golden test pins,
// extended with windowed-SMT and checkpoint-restored cells, each
// measured into the (counter map, parameter map) form the
// internal/counterpoint predicates evaluate. The counterpoint gate
// (internal/tools/counterpointgate, `make counterpoint-gate`) and the
// counterpoint teeth tests both consume this matrix, so "no predicate
// is vacuous across the golden matrix" is a single, shared definition.

import (
	"fmt"

	"vca/internal/emu"
	"vca/internal/simcache"
	"vca/internal/verify"
	"vca/internal/workload"
)

// MatrixStop is the per-cell commit budget of the counter-oracle
// matrix — the same depth the scheduler golden matrix uses, deep
// enough to exercise spills, squashes, window traps, and long-latency
// stalls on every workload.
const MatrixStop = 25_000

// MatrixCell is one golden-matrix measurement: an architecture, one
// workload per hardware thread, a register-file size, and optionally a
// functional fast-forward prefix (so predicates are also pinned
// against checkpoint-restored counter maps).
type MatrixCell struct {
	Name        string   // stable cell identifier, e.g. "vca (flat)/gap"
	Arch        Arch     // machine model
	Workloads   []string // one benchmark name per thread
	PhysRegs    int      // register-file size
	FastForward uint64   // functional warmup instructions per thread (0 = cold)
}

// CounterpointMatrix returns the counter-oracle cell set: the 45-cell
// scheduler golden grid (15 workloads × baseline/VCA-flat/VCA-windowed,
// single-threaded, 256/128 registers) plus four extended cells — a
// conventional-window SMT pair (the only family that takes window
// traps, so the trap predicates have something to measure), a
// VCA-windowed SMT pair, and two checkpoint-restored runs.
func CounterpointMatrix() []MatrixCell {
	var cells []MatrixCell
	for _, arch := range []Arch{ArchBaseline, ArchVCAFlat, ArchVCAWindow} {
		regs := 256
		if arch != ArchBaseline {
			regs = 128
		}
		for _, w := range workload.All() {
			cells = append(cells, MatrixCell{
				Name:      fmt.Sprintf("%s/%s", arch.Label(), w.Name),
				Arch:      arch,
				Workloads: []string{w.Name},
				PhysRegs:  regs,
			})
		}
	}
	cells = append(cells,
		MatrixCell{
			Name:      "register window/2T:gcc_expr+parser",
			Arch:      ArchConvWindow,
			Workloads: []string{"gcc_expr", "parser"},
			// A 2-thread conventional-window machine constructs only in the
			// one-resident-window band (the windowed logical file scales
			// with PhysRegs, so nwin must stay at 1): every call past depth
			// one traps, which is exactly the traffic the window-trap
			// predicates need to measure.
			PhysRegs: 144,
		},
		MatrixCell{
			Name:      "vca/2T:crafty+twolf",
			Arch:      ArchVCAWindow,
			Workloads: []string{"crafty", "twolf"},
			PhysRegs:  192,
		},
		MatrixCell{
			Name:        "baseline/ff:bzip2_graphic",
			Arch:        ArchBaseline,
			Workloads:   []string{"bzip2_graphic"},
			PhysRegs:    256,
			FastForward: 5_000,
		},
		MatrixCell{
			Name:        "vca/ff:gap",
			Arch:        ArchVCAWindow,
			Workloads:   []string{"gap"},
			PhysRegs:    128,
			FastForward: 5_000,
		},
	)
	return cells
}

// RunMatrixCell measures one cell: it builds the per-thread programs,
// optionally fast-forwards each on the functional engine, runs the
// detailed machine to the commit budget, and returns the run's counter
// map plus the config-derived parameter map the predicates reference.
//
// With a non-nil cache a cell run from reset funnels through
// RunMachineShared (memoized, singleflight-coalesced) and a restored
// cell through RunMachine (memoized), which is how the gate makes the
// simcache.* service predicates measurable; a nil cache simulates
// directly.
func RunMatrixCell(c MatrixCell, stop uint64, cc *simcache.Cache) (counters, params map[string]uint64, err error) {
	cfg, ok := c.Arch.Config(len(c.Workloads), c.PhysRegs, 2)
	if !ok {
		return nil, nil, fmt.Errorf("counterpoint: %s: architecture rejects %d registers", c.Name, c.PhysRegs)
	}
	cfg.StopAfter = stop
	cfg.MaxCycles = 1 << 34
	windowed := c.Arch.Windowed()

	benches := make([]workload.Benchmark, len(c.Workloads))
	for i, name := range c.Workloads {
		if benches[i], err = workload.ByName(name); err != nil {
			return nil, nil, fmt.Errorf("counterpoint: %s: %w", c.Name, err)
		}
	}
	progs, err := buildPrograms(c.Arch, benches)
	if err != nil {
		return nil, nil, fmt.Errorf("counterpoint: %s: %w", c.Name, err)
	}

	if c.FastForward > 0 {
		cks := make([]*emu.Checkpoint, len(progs))
		for i, p := range progs {
			m := emu.New(p, emu.Config{Windowed: windowed})
			executed, err := m.FastRun(c.FastForward)
			if err != nil {
				return nil, nil, fmt.Errorf("counterpoint: %s: fast-forward thread %d: %w", c.Name, i, err)
			}
			if executed < c.FastForward {
				return nil, nil, fmt.Errorf("counterpoint: %s: thread %d exited during warmup (%d < %d insts)", c.Name, i, executed, c.FastForward)
			}
			cks[i] = m.Checkpoint()
		}
		_, counters, _, err = cc.RunMachine(cfg, progs, windowed, cks)
	} else {
		var e *simcache.Entry
		if e, _, err = cc.RunMachineShared(simcache.Key(cfg, progs, windowed), cfg, progs, windowed); err == nil {
			counters = e.Counters
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("counterpoint: %s: %w", c.Name, err)
	}
	return counters, verify.ConfigParams(cfg), nil
}
