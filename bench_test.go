// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations of the design decisions DESIGN.md calls out
// and micro-benchmarks of the simulator substrates.
//
// Figure benches run a reduced experiment matrix (smaller commit budgets
// than cmd/experiments) and report the figure's headline numbers through
// b.ReportMetric, so `go test -bench=.` regenerates the shape of every
// result. Use cmd/experiments for the full-budget tables.
package vca

import (
	"testing"

	"vca/internal/core"
	"vca/internal/emu"
	"vca/internal/experiments"
	"vca/internal/mem"
	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/rename"
	"vca/internal/workload"
)

const benchStop = 40_000 // per-run commit budget for figure benches

// BenchmarkTable1Baseline measures the baseline machine of Table 1 running
// one representative benchmark; the metric of record is its IPC.
func BenchmarkTable1Baseline(b *testing.B) {
	bench, err := workload.ByName("crafty")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		met, err := experiments.RunSingle(bench, experiments.ArchBaseline, 256, 2, benchStop)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1/met.CPI, "IPC")
	}
}

// BenchmarkTable2PathLength recomputes the Table 2 ratios from complete
// functional runs and reports the suite average (paper: 0.92).
func BenchmarkTable2PathLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, avg, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(avg, "avg-ratio")
	}
}

func sweepMetrics(b *testing.B, ports int) {
	b.Helper()
	cells, err := experiments.RegWindowSweep(ports, benchStop)
	if err != nil {
		b.Fatal(err)
	}
	base256, _ := experiments.Cell(cells, experiments.ArchBaseline, 256)
	vca256, _ := experiments.Cell(cells, experiments.ArchVCAWindow, 256)
	vca128, _ := experiments.Cell(cells, experiments.ArchVCAWindow, 128)
	base128, _ := experiments.Cell(cells, experiments.ArchBaseline, 128)
	ideal256, _ := experiments.Cell(cells, experiments.ArchIdealWindow, 256)
	b.ReportMetric(vca256.NormTime/base256.NormTime, "vca/base-time@256")
	b.ReportMetric(vca128.NormTime/base128.NormTime, "vca/base-time@128")
	b.ReportMetric(vca256.NormTime/ideal256.NormTime, "vca/ideal-time@256")
	b.ReportMetric(vca256.NormAccesses/base256.NormAccesses, "vca/base-dcache@256")
}

// BenchmarkFig4RegisterWindows regenerates Figure 4's sweep (dual-port)
// and reports the paper's headline ratios: VCA vs baseline execution time
// at 256 and 128 registers (paper: 0.96 and 0.91) and VCA vs ideal
// (paper: 1.01).
func BenchmarkFig4RegisterWindows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweepMetrics(b, 2)
	}
}

// BenchmarkFig5CacheAccesses reports Figure 5's headline: VCA's data-cache
// accesses relative to the baseline at 256 registers (paper: ~0.80).
func BenchmarkFig5CacheAccesses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.RegWindowSweep(2, benchStop)
		if err != nil {
			b.Fatal(err)
		}
		base256, _ := experiments.Cell(cells, experiments.ArchBaseline, 256)
		vca256, _ := experiments.Cell(cells, experiments.ArchVCAWindow, 256)
		conv128, ok := experiments.Cell(cells, experiments.ArchConvWindow, 128)
		b.ReportMetric(vca256.NormAccesses/base256.NormAccesses, "vca/base@256")
		if ok {
			b.ReportMetric(conv128.NormAccesses, "conv-window@128")
		}
	}
}

// BenchmarkFig6SinglePort regenerates Figure 6: single-DL1-port execution
// time, still normalized against the dual-port baseline. The paper's
// headline: single-port VCA ~= dual-port baseline at 256 registers.
func BenchmarkFig6SinglePort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweepMetrics(b, 1)
	}
}

func smtBench(b *testing.B, windowed bool) {
	b.Helper()
	opts := experiments.SMTOptions{
		K2: 3, K4: 3, StopAfter: benchStop,
		Sizes:    []int{192, 320, 448},
		Windowed: windowed,
	}
	cells, err := experiments.SMTSweep(opts)
	if err != nil {
		b.Fatal(err)
	}
	v4, _ := experiments.SMTCellFor(cells, "vca 4T", 192)
	b4, ok := experiments.SMTCellFor(cells, "baseline 4T", 448)
	if ok {
		b.ReportMetric(v4.Speedup/b4.Speedup, "vca4T@192/base4T@448")
	}
	v2, _ := experiments.SMTCellFor(cells, "vca 2T", 192)
	b2, ok2 := experiments.SMTCellFor(cells, "baseline 2T", 320)
	if ok2 {
		b.ReportMetric(v2.Speedup/b2.Speedup, "vca2T@192/base2T@320")
	}
	b.ReportMetric(v4.Accesses, "weighted-dcache-4T@192")
}

// BenchmarkFig7SMT regenerates Figure 7 (non-windowed SMT): VCA at 192
// registers versus the conventional machine at its full sizes (paper:
// 97-98.7%).
func BenchmarkFig7SMT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		smtBench(b, false)
	}
}

// BenchmarkFig8SMTWindows regenerates Figure 8 (SMT + register windows on
// VCA).
func BenchmarkFig8SMTWindows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		smtBench(b, true)
	}
}

// BenchmarkFig8CacheAccesses reports the §4.3 claim: adding windows cuts
// the 4-thread VCA machine's cache accesses substantially (paper: ~23%).
func BenchmarkFig8CacheAccesses(b *testing.B) {
	opts := experiments.SMTOptions{K2: 3, K4: 3, StopAfter: benchStop, Sizes: []int{192}}
	for i := 0; i < b.N; i++ {
		flat, err := experiments.SMTSweep(opts)
		if err != nil {
			b.Fatal(err)
		}
		wopts := opts
		wopts.Windowed = true
		win, err := experiments.SMTSweep(wopts)
		if err != nil {
			b.Fatal(err)
		}
		f4, _ := experiments.SMTCellFor(flat, "vca 4T", 192)
		w4, _ := experiments.SMTCellFor(win, "vca 4T", 192)
		b.ReportMetric(w4.Accesses/f4.Accesses, "windowed/flat-dcache-4T")
	}
}

// --- Ablations (design decisions from DESIGN.md §4) ---

func runVCAVariant(b *testing.B, mutate func(*core.Config)) uint64 {
	b.Helper()
	bench, err := workload.ByName("gcc_expr")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bench.Build(minic.ABIWindowed)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(core.RenameVCA, core.WindowVCA, 1, 128)
	cfg.StopAfter = benchStop
	mutate(&cfg)
	m, err := core.New(cfg, []*program.Program{prog}, true)
	if err != nil {
		b.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res.Cycles
}

// BenchmarkAblationRenameAssoc sweeps the VCA rename table associativity
// (§2.1.1: "a four-way set associative table provides good performance").
func BenchmarkAblationRenameAssoc(b *testing.B) {
	for _, ways := range []int{2, 3, 4, 6} {
		ways := ways
		b.Run("ways="+itoa(ways), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cyc := runVCAVariant(b, func(c *core.Config) { c.VCA.Ways = ways })
				b.ReportMetric(float64(cyc), "cycles")
			}
		})
	}
}

// BenchmarkAblationASTQDepth sweeps the ASTQ size (§2.2.2: "only four
// entries are required to provide maximum benefit").
func BenchmarkAblationASTQDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8, 16} {
		depth := depth
		b.Run("depth="+itoa(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cyc := runVCAVariant(b, func(c *core.Config) { c.ASTQSize = depth })
				b.ReportMetric(float64(cyc), "cycles")
			}
		})
	}
}

// BenchmarkAblationOverwriteHint toggles the replacement demotion of
// overwrite-pending registers (§2.1.2).
func BenchmarkAblationOverwriteHint(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cyc := runVCAVariant(b, func(c *core.Config) { c.VCA.OverwriteHint = on })
				b.ReportMetric(float64(cyc), "cycles")
			}
		})
	}
}

// BenchmarkAblationRecoveryWalk toggles the Pentium-4-style commit-table
// walk charged on mispredictions (§2.1.3).
func BenchmarkAblationRecoveryWalk(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cyc := runVCAVariant(b, func(c *core.Config) { c.RecoveryWalk = on })
				b.ReportMetric(float64(cyc), "cycles")
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Substrate micro-benchmarks (simulator performance itself) ---

// BenchmarkCosimStep measures the co-simulation reference step: one
// emu StepInto, the call the detailed core makes per committed
// instruction when Config.CoSim is on (core.DefaultConfig), reported as
// ns per step over complete runs of crafty.
func BenchmarkCosimStep(b *testing.B) {
	bench, err := workload.ByName("crafty")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bench.Build(minic.ABIFlat)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var steps uint64
	var info emu.StepInfo
	for i := 0; i < b.N; i++ {
		m := emu.New(prog, emu.Config{})
		for {
			if err := m.StepInto(&info); err != nil {
				b.Fatal(err)
			}
			if exited, _ := m.Exited(); exited {
				break
			}
		}
		steps += m.Stats.Insts
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// BenchmarkEmuFastRun measures the fast functional engine (predecoded
// micro-op array, tight dispatch loop — the fast-forward path) on the
// same workload as BenchmarkSimThroughput. Each op is exactly 100k
// executed instructions, so ns/op / 100000 is ns per simulated
// instruction; cmd/benchsmoke gates both this engine's absolute
// throughput and its speedup over the detailed core.
func BenchmarkEmuFastRun(b *testing.B) {
	bench, err := workload.ByName("crafty")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bench.Build(minic.ABIFlat)
	if err != nil {
		b.Fatal(err)
	}
	const budget = 100_000
	m := emu.New(prog, emu.Config{})
	if _, err := m.FastRun(budget); err != nil { // warm up: predecode, touch pages
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		need := uint64(budget)
		for need > 0 {
			ran, err := m.FastRun(need)
			if err != nil {
				b.Fatal(err)
			}
			need -= ran
			if ex, _ := m.Exited(); ex {
				m = emu.New(prog, emu.Config{})
			}
		}
		insts += budget
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
	if sec > 0 {
		b.ReportMetric(float64(insts)/sec/1e6, "funcMIPS")
	}
}

// BenchmarkSimThroughput is the repo's tracked perf headline: simulated
// MIPS (committed instructions per host second) of the detailed core on
// the cmd/experiments entry-point configuration, co-simulation on — the
// exact mode every table and figure pays for. cmd/experiments -benchjson
// records the same quantity to BENCH_*.json; keep the two in sync.
func BenchmarkSimThroughput(b *testing.B) {
	bench, err := workload.ByName("crafty")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bench.Build(minic.ABIFlat)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(core.RenameConventional, core.WindowNone, 1, 256)
	cfg.StopAfter = 100_000
	cfg.MaxCycles = 1 << 34
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m, err := core.New(cfg, []*program.Program{prog}, false)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Threads[0].Committed
	}
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(insts)/sec/1e6, "simMIPS")
	}
}

// BenchmarkCorePipeline measures detailed-simulation speed.
func BenchmarkCorePipeline(b *testing.B) {
	bench, _ := workload.ByName("crafty")
	prog, err := bench.Build(minic.ABIFlat)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(core.RenameVCA, core.WindowNone, 1, 128)
	cfg.StopAfter = 100_000
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m, err := core.New(cfg, []*program.Program{prog}, false)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Threads[0].Committed
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// BenchmarkVCARenameOps measures raw renamer throughput.
func BenchmarkVCARenameOps(b *testing.B) {
	v := rename.NewVCA(rename.DefaultVCAConfig(1, 128))
	v.ReadValue = func(int) uint64 { return 0 }
	var ops []rename.MemOp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(0x1000 + 8*(i%256))
		ops = ops[:0]
		p, _, ok := v.RenameSource(addr, &ops)
		if ok {
			v.ReleaseSource(p)
			v.ReleaseRetired(p)
		}
	}
}

// BenchmarkVCAEvictUnderPressure measures the renamer's eviction path:
// a destination rename plus its commit with the free list empty, so
// every allocation evicts the global-LRU committed register (and spills
// it). Addresses cycle over four times as many logical registers as the
// 64 physical ones, so each rename misses. "paper" is the paper's 64-set
// × 3-way table; "ideal" is the ideal-window machine's 16,384 × 8.
func BenchmarkVCAEvictUnderPressure(b *testing.B) {
	for _, g := range []struct {
		name string
		cfg  rename.VCAConfig
	}{
		{"paper", rename.DefaultVCAConfig(1, 64)},
		{"ideal", core.DefaultConfig(core.RenameVCA, core.WindowIdeal, 1, 64).VCA},
	} {
		b.Run(g.name, func(b *testing.B) {
			v := rename.NewVCA(g.cfg)
			v.ReadValue = func(int) uint64 { return 0 }
			var ops []rename.MemOp
			span := 4 * g.cfg.PhysRegs
			renameCommit := func(i int) {
				addr := uint64(0x1000 + 8*(i%span))
				ops = ops[:0]
				p, prev, ok := v.RenameDest(addr, &ops)
				if !ok {
					b.Fatal("rename stalled with no in-flight instructions")
				}
				v.CommitDest(addr, p, prev)
			}
			for i := 0; i < g.cfg.PhysRegs; i++ {
				renameCommit(i)
			}
			if v.FreeCount() != 0 {
				b.Fatalf("%d registers still free after warm-up", v.FreeCount())
			}
			evicts := v.Stats.PhysEvicts
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				renameCommit(g.cfg.PhysRegs + i)
			}
			b.ReportMetric(float64(v.Stats.PhysEvicts-evicts)/float64(b.N), "evicts/op")
		})
	}
}

// BenchmarkCacheAccess measures the timing-cache hot path.
func BenchmarkCacheAccess(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.DataAccess(uint64(i*64%(1<<20)), i%4 == 0, mem.CauseProgram)
	}
}
