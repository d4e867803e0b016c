// Command experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated machine suite.
//
// Usage:
//
//	experiments -all                 # everything (several minutes)
//	experiments -table1 -table2
//	experiments -fig4 -fig5          # register-window sweeps (shared runs)
//	experiments -fig6                # single-cache-port sweep
//	experiments -fig7                # SMT weighted speedups
//	experiments -fig8                # SMT + register windows
//	experiments -stop N              # per-run commit budget (default 150000)
//	experiments -sweep N             # N randomized lockstep verification runs
//	experiments -sweepseed S         # sweep RNG seed (default 1)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"vca/internal/experiments"
	"vca/internal/simcache"
	"vca/internal/verify"
)

var (
	flagAll    = flag.Bool("all", false, "run every experiment")
	flagTable1 = flag.Bool("table1", false, "print baseline parameters (Table 1)")
	flagTable2 = flag.Bool("table2", false, "path-length ratios (Table 2)")
	flagFig4   = flag.Bool("fig4", false, "register-window execution time (Figure 4)")
	flagFig5   = flag.Bool("fig5", false, "register-window cache accesses (Figure 5)")
	flagFig6   = flag.Bool("fig6", false, "single-port execution time (Figure 6)")
	flagFig7   = flag.Bool("fig7", false, "SMT weighted speedup (Figure 7)")
	flagFig8   = flag.Bool("fig8", false, "SMT + register windows (Figure 8)")
	flagStop   = flag.Uint64("stop", 150_000, "per-run commit budget (0 = full runs)")

	flagSweep     = flag.Int("sweep", 0, "run N randomized machine configurations in lockstep with the emulator (invariant checker + co-simulation); shrunk repros print as JSON on divergence")
	flagSweepSeed = flag.Int64("sweepseed", 1, "RNG seed for -sweep and -counterpoint (a fixed seed reproduces the exact configuration sequence; meaningless without one of them)")

	flagCounterpoint = flag.Bool("counterpoint", false, "refute-and-refine: sweep the config cross-product and evaluate every counter-algebra predicate against each cell's counter map; refutations shrink to minimal repros (docs/VERIFICATION.md \"Counter oracle\")")
	flagPredicates   = flag.String("predicates", "", "comma-separated predicate names to evaluate (requires -counterpoint; default: the full catalogue)")
	flagCPReport     = flag.String("cpreport", "", "write the counterpoint refinement report JSON to this file (requires -counterpoint)")

	flagJobs       = flag.Int("jobs", 0, "parallel simulation jobs (0 = GOMAXPROCS)")
	flagCache      = flag.Bool("cache", true, "memoize simulation results on disk (EXPERIMENTS.md \"Result cache\"; -cachedir/-cacheclear/-cachestats are rejected with -cache=false)")
	flagCacheDir   = flag.String("cachedir", ".simcache", "result cache directory (requires -cache)")
	flagCacheClear = flag.Bool("cacheclear", false, "clear the result cache before running (requires -cache)")
	flagCacheStats = flag.String("cachestats", "", "write end-of-run cache hit/miss counters as JSON to this file (requires -cache)")

	flagCPUProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	flagMemProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"experiments — regenerate the paper's tables and figures (results commentary: EXPERIMENTS.md)\n\n"+
				"At least one selector is required: -all, -table1/2, -fig4..8, -sweep, -counterpoint, or -cacheclear.\n"+
				"Flag interactions:\n"+
				"  -sweep and -counterpoint are mutually exclusive (each owns the run's exit status)\n"+
				"  -sweepseed only affects -sweep and -counterpoint\n"+
				"  -predicates and -cpreport require -counterpoint\n"+
				"  -cachedir/-cacheclear/-cachestats require -cache (the default)\n"+
				"  -counterpoint cells always simulate fresh (predicates measure the live machine)\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *flagAll {
		*flagTable1, *flagTable2 = true, true
		*flagFig4, *flagFig5, *flagFig6 = true, true, true
		*flagFig7, *flagFig8 = true, true
	}
	if !(*flagTable1 || *flagTable2 || *flagFig4 || *flagFig5 || *flagFig6 || *flagFig7 || *flagFig8 || *flagSweep > 0 || *flagCounterpoint || *flagCacheClear) {
		flag.Usage()
		os.Exit(2)
	}
	if err := checkFlags(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	experiments.SetJobs(*flagJobs)
	if needsCache() {
		cache, err := simcache.Open(*flagCacheDir)
		check(err)
		if *flagCacheClear {
			check(cache.Clear())
		}
		experiments.SetCache(cache)
		defer func() {
			if s := cache.Stats(); s.Hits+s.Misses > 0 || *flagCacheStats != "" {
				fmt.Fprintf(os.Stderr, "simcache: %s in %s\n", s, cache.Dir())
			}
		}()
		if *flagCacheStats != "" {
			defer func() { check(writeCacheStats(*flagCacheStats, cache)) }()
		}
	}

	if *flagCPUProfile != "" {
		f, err := os.Create(*flagCPUProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *flagMemProfile != "" {
		defer func() {
			f, err := os.Create(*flagMemProfile)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			f.Close()
		}()
	}

	if *flagSweep > 0 {
		sweep(*flagSweepSeed, *flagSweep)
	}
	if *flagCounterpoint {
		counterpointSweep(*flagSweepSeed, *flagPredicates, *flagCPReport)
	}
	if *flagTable1 {
		table1()
	}
	if *flagTable2 {
		check(table2())
	}
	if *flagFig4 || *flagFig5 {
		check(figs45(*flagFig4, *flagFig5))
	}
	if *flagFig6 {
		check(fig6())
	}
	if *flagFig7 {
		check(fig7())
	}
	if *flagFig8 {
		check(fig8())
	}
}

// checkFlags rejects the flag combinations the usage text forbids, so
// that none of them runs nothing or silently drops an output file. It
// reads the flag values from the package's flag variables; fs reports
// which flags were given on the command line.
func checkFlags(fs *flag.FlagSet) error {
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	switch {
	case *flagSweep > 0 && *flagCounterpoint:
		return errors.New("-sweep and -counterpoint are mutually exclusive (each owns the run's exit status)")
	case (*flagPredicates != "" || *flagCPReport != "") && !*flagCounterpoint:
		return errors.New("-predicates and -cpreport require -counterpoint")
	case !*flagCache && (given["cachedir"] || *flagCacheClear || *flagCacheStats != ""):
		return errors.New("-cachedir, -cacheclear and -cachestats require -cache")
	}
	return nil
}

// needsCache reports whether the run opens the result cache: only the
// figures simulate through it (-table1 prints parameters, -table2 runs
// functional profiles, and -sweep and -counterpoint always simulate
// fresh), while -cacheclear and -cachestats act on the store itself.
// Opening it creates its directory, so a run that needs none leaves none.
func needsCache() bool {
	figs := *flagAll || *flagFig4 || *flagFig5 || *flagFig6 || *flagFig7 || *flagFig8
	return *flagCache && (figs || *flagCacheClear || *flagCacheStats != "")
}

// sweep runs the config-space lockstep verification sweep and exits
// non-zero if any run diverged (printing each shrunk repro as JSON —
// the format docs/VERIFICATION.md documents) or a configuration took
// the harness down (panic, reported as a failed cell).
func sweep(seed int64, n int) {
	fmt.Printf("== Lockstep verification sweep: %d runs, seed %d ==\n", n, seed)
	var repros []verify.Repro
	err := verify.Sweep(verify.Plan(seed, n), *flagJobs, verify.Lockstep, func(i int, rs []verify.Repro, err error) {
		repros = append(repros, rs...)
		status := "ok"
		switch {
		case err != nil:
			status = "ERROR"
		case len(rs) > 0:
			status = "DIVERGED"
		}
		fmt.Printf("run %3d/%d: %s\n", i+1, n, status)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: sweep harness failures:", err)
	}
	if len(repros) == 0 && err == nil {
		fmt.Println("all runs agree with the functional emulator; no invariant violations")
		return
	}
	for _, r := range repros {
		b, err := json.MarshalIndent(r, "", "  ")
		check(err)
		fmt.Printf("minimal repro:\n%s\n", b)
	}
	os.Exit(1)
}

// writeCacheStats dumps the cache traffic counters as JSON (consumed
// by internal/tools/cachecheck in the `make cache-ci` gate).
func writeCacheStats(path string, cache *simcache.Cache) error {
	b, err := json.MarshalIndent(cache.Stats(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func table1() {
	cfg, _ := experiments.ArchBaseline.Config(1, 256, 2)
	fmt.Println("== Table 1: baseline processor parameters ==")
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Machine width\t%d\n", cfg.Width)
	fmt.Fprintf(w, "Instruction queue\t%d\n", cfg.IQSize)
	fmt.Fprintf(w, "Reorder buffer\t%d\n", cfg.ROBSize)
	fmt.Fprintf(w, "Pipeline depth (fetch to exec)\t%d cycles\n", cfg.FrontLat+3)
	fmt.Fprintf(w, "DL1 ports\t%d R/W\n", cfg.Hier.DL1Ports)
	fmt.Fprintf(w, "DL1\t%dK %d-way, %d-cycle hit\n", cfg.Hier.DL1.SizeBytes>>10, cfg.Hier.DL1.Ways, cfg.Hier.DL1.HitLat)
	fmt.Fprintf(w, "IL1\t%dK %d-way, %d-cycle hit\n", cfg.Hier.IL1.SizeBytes>>10, cfg.Hier.IL1.Ways, cfg.Hier.IL1.HitLat)
	fmt.Fprintf(w, "L2\t%dM %d-way, %d-cycle hit\n", cfg.Hier.L2.SizeBytes>>20, cfg.Hier.L2.Ways, cfg.Hier.L2.HitLat)
	fmt.Fprintf(w, "Memory latency\t%d cycles\n", cfg.Hier.MemLat)
	fmt.Fprintf(w, "Branch predictor\thybrid (bimodal+gshare), %d-entry RAS\n", cfg.BP.RASDepth)
	w.Flush()
	fmt.Println()
}

func table2() error {
	rows, avg, err := experiments.Table2()
	if err != nil {
		return err
	}
	fmt.Println("== Table 2: path-length ratio (windowed / flat, full runs) ==")
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\n", r.Benchmark, r.Ratio)
	}
	fmt.Fprintf(w, "Average\t%.2f\n", avg)
	w.Flush()
	fmt.Println()
	return nil
}

func printSweep(title, metric string, cells []experiments.SweepCell, pick func(experiments.SweepCell) float64) {
	fmt.Printf("== %s ==\n", title)
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "physical registers\t")
	for _, r := range experiments.RegWindowSizes {
		fmt.Fprintf(w, "%d\t", r)
	}
	fmt.Fprintln(w)
	for _, a := range experiments.RegWindowArchs {
		fmt.Fprintf(w, "%s\t", a.Label())
		for _, r := range experiments.RegWindowSizes {
			if c, ok := experiments.Cell(cells, a, r); ok {
				fmt.Fprintf(w, "%.3f\t", pick(c))
			} else {
				fmt.Fprintf(w, "—\t")
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Printf("(%s, normalized to dual-port baseline with 256 registers)\n\n", metric)
}

func figs45(f4, f5 bool) error {
	cells, err := experiments.RegWindowSweep(2, *flagStop)
	if err != nil {
		return err
	}
	if f4 {
		printSweep("Figure 4: register window execution time", "estimated execution time",
			cells, func(c experiments.SweepCell) float64 { return c.NormTime })
	}
	if f5 {
		printSweep("Figure 5: register window data cache accesses", "total data cache accesses",
			cells, func(c experiments.SweepCell) float64 { return c.NormAccesses })
	}
	return nil
}

func fig6() error {
	cells, err := experiments.RegWindowSweep(1, *flagStop)
	if err != nil {
		return err
	}
	printSweep("Figure 6: single cache port execution time", "estimated execution time",
		cells, func(c experiments.SweepCell) float64 { return c.NormTime })
	return nil
}

func printSMT(title string, cells []experiments.SMTCell, sizes []int, series []string, pick func(experiments.SMTCell) float64, note string) {
	fmt.Printf("== %s ==\n", title)
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "physical registers\t")
	for _, r := range sizes {
		fmt.Fprintf(w, "%d\t", r)
	}
	fmt.Fprintln(w)
	for _, s := range series {
		fmt.Fprintf(w, "%s\t", s)
		for _, r := range sizes {
			if c, ok := experiments.SMTCellFor(cells, s, r); ok {
				fmt.Fprintf(w, "%.3f\t", pick(c))
			} else {
				fmt.Fprintf(w, "—\t")
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Println(note)
	fmt.Println()
}

func fig7() error {
	opts := experiments.DefaultSMTOptions()
	opts.StopAfter = *flagStop
	if opts.StopAfter == 0 {
		opts.StopAfter = 250_000
	}
	cells, err := experiments.SMTSweep(opts)
	if err != nil {
		return err
	}
	printSMT("Figure 7: SMT performance", cells, experiments.SMTSizes,
		[]string{"vca 2T", "vca 4T", "baseline 2T", "baseline 4T"},
		func(c experiments.SMTCell) float64 { return c.Speedup },
		"(weighted speedup vs single-thread baseline with 256 registers)")
	return nil
}

func fig8() error {
	opts := experiments.DefaultSMTOptions()
	opts.StopAfter = *flagStop
	if opts.StopAfter == 0 {
		opts.StopAfter = 250_000
	}
	opts.Windowed = true
	opts.OneThread = true
	cells, err := experiments.SMTSweep(opts)
	if err != nil {
		return err
	}
	series := []string{"vca 1T", "vca 2T", "vca 4T", "baseline 1T", "baseline 2T", "baseline 4T"}
	printSMT("Figure 8: SMT + register window performance", cells, experiments.SMTSizes, series,
		func(c experiments.SMTCell) float64 { return c.Speedup },
		"(weighted speedup vs single-thread baseline with 256 registers; vca series run windowed binaries)")
	printSMT("Section 4.3: weighted data cache accesses", cells, experiments.SMTSizes, series,
		func(c experiments.SMTCell) float64 { return c.Accesses },
		"(sum over threads of accesses/inst relative to single-thread baseline)")
	return nil
}
