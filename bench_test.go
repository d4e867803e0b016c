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
	"math"
	"strconv"
	"testing"
	"time"

	"vca/internal/core"
	"vca/internal/emu"
	"vca/internal/experiments"
	"vca/internal/mem"
	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/rename"
	"vca/internal/simcache"
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

func runVCAVariant(b testing.TB, mutate func(*core.Config)) uint64 {
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

// TestAblationsMoveCycles runs both ends of every ablation below once and
// fails when they simulate the same cycle count: a toggle that no longer
// changes the machine is dead code, not a design decision.
func TestAblationsMoveCycles(t *testing.T) {
	for _, a := range []struct {
		name     string
		from, to func(*core.Config)
	}{
		{"ways 2 vs 3", func(c *core.Config) { c.VCA.Ways = 2 }, func(c *core.Config) { c.VCA.Ways = 3 }},
		{"ASTQ depth 1 vs 4", func(c *core.Config) { c.ASTQSize = 1 }, func(c *core.Config) { c.ASTQSize = 4 }},
		{"RecoveryWalk on vs off", func(c *core.Config) { c.RecoveryWalk = true }, func(c *core.Config) { c.RecoveryWalk = false }},
	} {
		from, to := runVCAVariant(t, a.from), runVCAVariant(t, a.to)
		t.Logf("%s: %d vs %d cycles", a.name, from, to)
		if from == to {
			t.Errorf("%s: both ends simulate %d cycles; the ablation is inert", a.name, from)
		}
	}
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
// instruction. TestFastEngineSpeedupFloor checks its speedup over the
// detailed core and that it does not allocate; perfbench tracks its
// host throughput (emu.fastforward_mips).
func BenchmarkEmuFastRun(b *testing.B) {
	batch := warmFastEngine(b, craftyFlat(b))
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		batch()
		insts += throughputBudget
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
	if sec > 0 {
		b.ReportMetric(float64(insts)/sec/1e6, "funcMIPS")
	}
}

// BenchmarkEmuProfile measures the functional engine on the traffic it
// really carries: every call-frequent benchmark run to completion under
// one ABI, which is the reference-profiling work (workload.Profile) the
// register-window sweeps pay in setup. The windowed sub-benchmark is the
// call-heavy one: every call and return pushes or pops a window frame.
func BenchmarkEmuProfile(b *testing.B) {
	for _, abi := range []minic.ABI{minic.ABIFlat, minic.ABIWindowed} {
		var progs []*program.Program
		for _, bench := range workload.CallFrequent() {
			p, err := bench.Build(abi)
			if err != nil {
				b.Fatal(err)
			}
			progs = append(progs, p)
		}
		cfg := emu.Config{Windowed: abi == minic.ABIWindowed, MaxInsts: 1 << 32}
		b.Run(abi.String(), func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					m := emu.New(p, cfg)
					if reason, err := m.Run(); err != nil || reason != emu.StopExited {
						b.Fatalf("%s: %v (%v)", p.Name, reason, err)
					}
					insts += m.Stats.Insts
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(insts)/sec/1e6, "funcMIPS")
			}
		})
	}
}

// BenchmarkSimThroughput is the repo's tracked perf headline: simulated
// MIPS (committed instructions per host second) of the detailed core on
// the cmd/experiments entry-point configuration, co-simulation on — the
// exact mode every table and figure pays for. perfbench tracks the same
// quantity end to end as core.ns_per_inst and core.run_s.
func BenchmarkSimThroughput(b *testing.B) {
	prog := craftyFlat(b)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		insts += detailedRun(b, prog)
	}
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(insts)/sec/1e6, "simMIPS")
	}
}

// throughputBudget is the instruction count of one BenchmarkSimThroughput
// run and of one BenchmarkEmuFastRun batch.
const throughputBudget = 100_000

// craftyFlat builds the throughput workload: crafty under the flat ABI.
func craftyFlat(tb testing.TB) *program.Program {
	tb.Helper()
	bench, err := workload.ByName("crafty")
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := bench.Build(minic.ABIFlat)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// detailedRun runs prog on the detailed core in the cmd/experiments
// entry-point configuration (conventional rename, 256 registers,
// co-simulation on) for throughputBudget committed instructions and
// returns the number committed.
func detailedRun(tb testing.TB, prog *program.Program) uint64 {
	tb.Helper()
	cfg := core.DefaultConfig(core.RenameConventional, core.WindowNone, 1, 256)
	cfg.StopAfter = throughputBudget
	cfg.MaxCycles = 1 << 34
	m, err := core.New(cfg, []*program.Program{prog}, false)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return res.Threads[0].Committed
}

// warmFastEngine returns one batch of the fast functional engine on
// prog: exactly throughputBudget instructions, restarting the program
// when it exits. One batch has already run, so predecode and page
// touches are not in the measured ones.
func warmFastEngine(tb testing.TB, prog *program.Program) (batch func()) {
	m := emu.New(prog, emu.Config{})
	if _, err := m.FastRun(throughputBudget); err != nil {
		tb.Fatal(err)
	}
	return func() {
		for need := uint64(throughputBudget); need > 0; {
			ran, err := m.FastRun(need)
			if err != nil {
				tb.Fatal(err)
			}
			need -= ran
			if ex, _ := m.Exited(); ex {
				m = emu.New(prog, emu.Config{})
			}
		}
	}
}

// TestFastEngineSpeedupFloor keeps the fast functional engine (the
// fast-forward path) at least 12 times faster per instruction than the
// detailed core on the throughput workload, and free of allocation once
// warm. The two engines alternate in one process on one host and the
// minimum of three runs of each is compared, so the ratio does not
// depend on host speed; the floor sits far below the measured ratio, so
// only a real collapse of the fast path trips it. Host speed itself is
// perfbench's to measure (perfbench/README.md).
func TestFastEngineSpeedupFloor(t *testing.T) {
	if raceDetectorOn {
		t.Skip("the race detector slows the two engines by different factors")
	}
	const floor = 12
	prog := craftyFlat(t)
	batch := warmFastEngine(t, prog)
	if allocs := testing.AllocsPerRun(3, batch); allocs != 0 {
		t.Errorf("a warmed %d-instruction FastRun batch allocates %v times, want 0", throughputBudget, allocs)
	}

	detailedNs, fastNs := math.Inf(1), math.Inf(1) // per instruction, minimum over runs
	for i := 0; i < 3; i++ {
		start := time.Now()
		committed := detailedRun(t, prog)
		d := float64(time.Since(start).Nanoseconds()) / float64(committed)
		start = time.Now()
		batch()
		f := float64(time.Since(start).Nanoseconds()) / throughputBudget
		detailedNs, fastNs = min(detailedNs, d), min(fastNs, f)
	}
	ratio := detailedNs / fastNs
	t.Logf("detailed %.1f ns/inst, fast %.2f ns/inst: %.1fx (floor %dx)", detailedNs, fastNs, ratio, floor)
	if ratio < floor {
		t.Errorf("the fast engine is only %.1fx faster than the detailed core, want >= %dx", ratio, floor)
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

// BenchmarkCoreNew measures machine construction alone: one core.New
// per op, cycling through the Figure 4 sweep's cell shapes (every
// operable RegWindowArchs × RegWindowSizes point on each call-frequent
// benchmark, 1 thread, 2 DL1 ports, co-simulation on as configured).
// With -benchmem, B/op is the bytes one machine costs before it runs.
func BenchmarkCoreNew(b *testing.B) {
	type shape struct {
		cfg      core.Config
		prog     *program.Program
		windowed bool
	}
	var shapes []shape
	for _, a := range experiments.RegWindowArchs {
		for _, r := range experiments.RegWindowSizes {
			cfg, ok := a.Config(1, r, 2)
			if !ok {
				continue
			}
			for _, bm := range workload.CallFrequent() {
				prog, err := bm.Build(a.ABI())
				if err != nil {
					b.Fatal(err)
				}
				shapes = append(shapes, shape{cfg, prog, a.ABI() == minic.ABIWindowed})
			}
		}
	}
	for _, s := range shapes { // shared per-program predecode and encoding
		if _, err := core.New(s.cfg, []*program.Program{s.prog}, s.windowed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shapes[i%len(shapes)]
		m, err := core.New(s.cfg, []*program.Program{s.prog}, s.windowed)
		if err != nil {
			b.Fatal(err)
		}
		coreNewSink = m
	}
}

var coreNewSink *core.Machine

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
				p, _, ok := v.RenameDest(addr, &ops)
				if !ok {
					b.Fatal("rename stalled with no in-flight instructions")
				}
				v.CommitDest(addr, p)
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

// --- Result-cache micro-benchmarks (internal/simcache) ---

// simcacheBenchJob is one service cell (crafty on the windowed VCA
// machine at 256 registers, a 2,000-instruction budget) as
// server.RunCell builds it.
func simcacheBenchJob(b *testing.B) (core.Config, []*program.Program) {
	b.Helper()
	bench, err := workload.ByName("crafty")
	if err != nil {
		b.Fatal(err)
	}
	cfg, progs, ok, err := experiments.ArchVCAWindow.Build([]workload.Benchmark{bench}, 256, 2, 2000)
	if err != nil || !ok {
		b.Fatalf("vca-windowed at 256 registers: ok=%v err=%v", ok, err)
	}
	return cfg, progs
}

var simcacheBenchSink any

// BenchmarkSimcacheKey measures one cell's content-address derivation,
// simcache.Key: the config fingerprint plus one digest per program.
func BenchmarkSimcacheKey(b *testing.B) {
	cfg, progs := simcacheBenchJob(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simcacheBenchSink = simcache.Key(cfg, progs)
	}
}

// BenchmarkConfigFingerprint measures one core.Config.Fingerprint, the
// config half of every cell's content address.
func BenchmarkConfigFingerprint(b *testing.B) {
	cfg, _ := simcacheBenchJob(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simcacheBenchSink = cfg.Fingerprint()
	}
}

// BenchmarkSimcacheHit measures a lookup of one stored cell. cold opens
// the cache directory afresh per op, so every lookup reads, decodes and
// verifies the entry file; view repeats the lookup on one open cache.
func BenchmarkSimcacheHit(b *testing.B) {
	cfg, progs := simcacheBenchJob(b)
	dir := b.TempDir()
	cache, err := simcache.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := cache.Run(cfg, progs, nil); err != nil {
		b.Fatal(err)
	}
	key := simcache.Key(cfg, progs)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := simcache.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			e, ok := c.Get(key)
			if !ok {
				b.Fatal("stored cell missed")
			}
			simcacheBenchSink = e
		}
	})
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, ok := cache.Get(key)
			if !ok {
				b.Fatal("stored cell missed")
			}
			simcacheBenchSink = e
		}
	})
}

// BenchmarkSimcachePut measures storing one cell, a copy of a stored
// entry under a fresh key, into an empty store and into one already
// holding 1,000 entries. A store's cost should not depend on how many
// entries sit beside it. Each run's store also grows by b.N; a fixed
// -benchtime such as 200x keeps the two sizes apart.
func BenchmarkSimcachePut(b *testing.B) {
	cfg, progs := simcacheBenchJob(b)
	src, err := simcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := src.Run(cfg, progs, nil); err != nil {
		b.Fatal(err)
	}
	e, ok := src.Get(simcache.Key(cfg, progs))
	if !ok {
		b.Fatal("stored cell missed")
	}
	for _, size := range []int{0, 1000} {
		name := "empty"
		if size > 0 {
			name = strconv.Itoa(size)
		}
		b.Run(name, func(b *testing.B) {
			cache, err := simcache.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < size; i++ {
				if err := cache.Put("fill-"+strconv.Itoa(i), cfg, progs, e.Result, e.Counters); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cache.Put("put-"+strconv.Itoa(i), cfg, progs, e.Result, e.Counters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
