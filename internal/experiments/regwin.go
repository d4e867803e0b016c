package experiments

import (
	"fmt"

	"vca/internal/minic"
	"vca/internal/stats"
	"vca/internal/workload"
)

// Table2Row is one path-length-ratio measurement.
type Table2Row struct {
	Benchmark string
	Ratio     float64
}

// Table2 reproduces the paper's Table 2: the windowed/flat dynamic
// path-length ratio of every benchmark, from complete functional runs.
func Table2() ([]Table2Row, float64, error) {
	benches := workload.All()
	rows := make([]Table2Row, len(benches))
	err := parallelFor(len(benches), func(i int) error {
		r, err := benches[i].PathLengthRatio()
		if err != nil {
			return err
		}
		rows[i] = Table2Row{Benchmark: benches[i].Name, Ratio: r}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var sum float64
	for _, r := range rows {
		sum += r.Ratio
	}
	return rows, sum / float64(len(rows)), nil
}

// RegWindowSizes is the Figure 4-6 x-axis.
var RegWindowSizes = []int{64, 128, 192, 256}

// RegWindowArchs is the Figure 4-6 series set.
var RegWindowArchs = []Arch{ArchBaseline, ArchIdealWindow, ArchConvWindow, ArchVCAWindow}

// SweepCell is one (architecture, size) point averaged over the
// call-frequent benchmark subset.
type SweepCell struct {
	Arch     Arch
	PhysRegs int
	Valid    bool
	// NormTime is estimated execution time (CPI x complete path length)
	// normalized to the dual-port baseline with 256 registers (Figures 4
	// and 6).
	NormTime float64
	// NormAccesses is total data-cache accesses normalized the same way
	// (Figure 5).
	NormAccesses float64
}

// RegWindowSweep produces Figures 4 and 5 (dl1Ports=2) or Figure 6
// (dl1Ports=1; normalization stays against the dual-port baseline).
// stopAfter caps detailed simulation per run (0 = run to completion).
func RegWindowSweep(dl1Ports int, stopAfter uint64) ([]SweepCell, error) {
	benches := workload.CallFrequent()

	type job struct {
		arch Arch
		regs int
	}
	var jobs []job
	for _, a := range RegWindowArchs {
		for _, r := range RegWindowSizes {
			jobs = append(jobs, job{a, r})
		}
	}

	// Per-benchmark reference: dual-port baseline at 256 registers.
	refTime := make([]float64, len(benches))
	refAcc := make([]float64, len(benches))
	err := parallelFor(len(benches), func(i int) error {
		met, err := RunSingle(benches[i], ArchBaseline, 256, 2, stopAfter)
		if err != nil {
			return fmt.Errorf("reference %s: %w", benches[i].Name, err)
		}
		flat, err := benches[i].Profile(minic.ABIFlat)
		if err != nil {
			return err
		}
		refTime[i] = stats.ExecTime(met.CPI, flat.Stats.Insts)
		refAcc[i] = stats.AccessesTotal(met.AccPerInst, flat.Stats.Insts)
		return nil
	})
	if err != nil {
		return nil, err
	}

	cells := make([]SweepCell, len(jobs))
	err = parallelFor(len(jobs), func(j int) error {
		jb := jobs[j]
		cell := SweepCell{Arch: jb.arch, PhysRegs: jb.regs}
		var times, accs []float64
		for i, b := range benches {
			met, err := RunSingle(b, jb.arch, jb.regs, dl1Ports, stopAfter)
			if err != nil {
				return fmt.Errorf("%s/%d/%s: %w", jb.arch.Label(), jb.regs, b.Name, err)
			}
			if !met.Valid {
				cells[j] = cell // Valid stays false
				return nil
			}
			prof, err := b.Profile(jb.arch.ABI())
			if err != nil {
				return err
			}
			times = append(times, stats.ExecTime(met.CPI, prof.Stats.Insts)/refTime[i])
			accs = append(accs, stats.AccessesTotal(met.AccPerInst, prof.Stats.Insts)/refAcc[i])
		}
		cell.Valid = true
		cell.NormTime = stats.Mean(times)
		cell.NormAccesses = stats.Mean(accs)
		cells[j] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// Cell finds the sweep cell for (arch, regs).
func Cell(cells []SweepCell, a Arch, regs int) (SweepCell, bool) {
	for _, c := range cells {
		if c.Arch == a && c.PhysRegs == regs {
			return c, c.Valid
		}
	}
	return SweepCell{}, false
}
