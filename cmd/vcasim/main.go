// Command vcasim runs one benchmark (or a multiprogrammed set) on a
// chosen machine model and prints the measurements.
//
// Usage:
//
//	vcasim -bench crafty -arch vca-windowed -regs 128
//	vcasim -bench crafty,mesa -arch vca-flat -regs 192          # 2-thread SMT
//	vcasim -bench gcc_expr -arch vca-windowed -stats stats.json # counter dump
//	vcasim -bench twolf -stop 20000 -chrometrace trace.json     # Perfetto timeline
//	vcasim -bench crafty -fastforward 1000000 -stop 50000       # skip warmup functionally
//	vcasim -bench crafty -fastforward 1000000 -checkpoint ck.json
//	vcasim -bench crafty -restore ck.json -stop 50000           # resume from the image
//	vcasim -list
//
// The counter catalogue and the trace-viewer workflow are documented in
// docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	vca "vca"
	"vca/internal/experiments"
	"vca/internal/workload"
)

var (
	flagProgs = flag.String("bench", "crafty", "comma-separated benchmark names (one per thread)")
	flagArch  = flag.String("arch", "baseline", strings.Join(experiments.ArchNames(), " | "))
	flagRegs  = flag.Int("regs", 256, "physical register file size")
	flagPorts = flag.Int("ports", 2, "data cache ports")
	flagStop  = flag.Uint64("stop", 0, "stop after any thread commits N instructions (0 = run to exit)")
	flagList  = flag.Bool("list", false, "list benchmarks and exit")
	flagTrace = flag.Bool("trace", false, "print a per-committed-instruction trace to stderr")

	flagStats  = flag.String("stats", "", "write the full event-counter dump to this file (.csv for CSV, otherwise JSON)")
	flagChrome = flag.String("chrometrace", "", "record a Chrome trace-event timeline and write it to this file (bound the run with -stop; excludes -fastforward/-restore, which would start the timeline mid-program)")

	flagCache    = flag.Bool("cache", false, "memoize the run in the on-disk result cache (ignored with -trace/-stats/-chrometrace, which need a live run)")
	flagCacheDir = flag.String("cachedir", ".simcache", "result cache directory for -cache")

	flagFastForward = flag.Uint64("fastforward", 0, "skip the first N instructions of every thread at functional speed before detailed simulation")
	flagCheckpoint  = flag.String("checkpoint", "", "write the fast-forwarded architectural state to this file (single thread, requires -fastforward)")
	flagRestore     = flag.String("restore", "", "start the detailed run from a checkpoint file instead of reset (single thread, excludes -fastforward/-checkpoint)")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"vcasim — run benchmarks on a chosen machine model (counters: docs/OBSERVABILITY.md)\n\n"+
				"Flag interactions:\n"+
				"  -checkpoint requires -fastforward; -restore excludes both; each needs a single-thread run\n"+
				"  -chrometrace excludes -fastforward/-restore and should be bounded with -stop\n"+
				"  -cache is ignored with -trace/-stats/-chrometrace (those need a live, uncached run)\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *flagList {
		for _, b := range workload.All() {
			kind := "int"
			if b.FP {
				kind = "fp"
			}
			fmt.Printf("%-16s %s\n", b.Name, kind)
		}
		return
	}

	arch, ok := experiments.ArchByName(*flagArch)
	if !ok {
		fail(fmt.Errorf("unknown architecture %q (want one of %s)", *flagArch, strings.Join(experiments.ArchNames(), ", ")))
	}

	var progs []*vca.Program
	var names []string
	for _, name := range strings.Split(*flagProgs, ",") {
		b, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			fail(err)
		}
		p, err := b.Build(arch.ABI())
		if err != nil {
			fail(err)
		}
		progs = append(progs, p)
		names = append(names, b.Name)
	}

	if *flagCheckpoint != "" && *flagFastForward == 0 {
		fail(fmt.Errorf("-checkpoint requires -fastforward (nothing to capture at instruction 0)"))
	}
	if *flagRestore != "" && (*flagFastForward > 0 || *flagCheckpoint != "") {
		fail(fmt.Errorf("-restore starts from an existing image; it excludes -fastforward and -checkpoint"))
	}
	if *flagChrome != "" && (*flagFastForward > 0 || *flagRestore != "") {
		fail(fmt.Errorf("-chrometrace cannot record a run that starts mid-program; drop -fastforward/-restore"))
	}
	if (*flagCheckpoint != "" || *flagRestore != "") && len(progs) != 1 {
		fail(fmt.Errorf("-checkpoint/-restore operate on a single-thread run, got %d threads", len(progs)))
	}

	spec := vca.MachineSpec{
		Arch:      arch,
		PhysRegs:  *flagRegs,
		DL1Ports:  *flagPorts,
		StopAfter: *flagStop,
	}
	switch {
	case *flagRestore != "":
		ck, err := vca.LoadCheckpoint(*flagRestore)
		if err != nil {
			fail(err)
		}
		spec.Restore = []*vca.Checkpoint{ck}
		fmt.Fprintf(os.Stderr, "vcasim: restored %s at instruction %d from %s\n", ck.Program, ck.Insts, *flagRestore)
	case *flagCheckpoint != "":
		// Fast-forward here (not inside Run) so the image can be saved.
		ck, err := vca.FastForward(progs[0], arch.Windowed(), *flagFastForward)
		if err != nil {
			fail(err)
		}
		if err := vca.SaveCheckpoint(*flagCheckpoint, ck); err != nil {
			fail(err)
		}
		addr, err := ck.ContentAddress()
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "vcasim: wrote checkpoint %s (inst %d, state %.12s)\n", *flagCheckpoint, ck.Insts, addr)
		spec.Restore = []*vca.Checkpoint{ck}
	case *flagFastForward > 0:
		spec.FastForward = *flagFastForward
	}
	if *flagTrace {
		spec.Trace = os.Stderr
	}
	if *flagChrome != "" {
		spec.ChromeTrace = vca.NewTraceRecorder()
	}
	// The -stats dump reads the live metrics registry, which a cache
	// hit does not carry — always simulate when it is requested.
	if *flagCache && *flagStats == "" {
		cache, err := vca.OpenResultCache(*flagCacheDir)
		if err != nil {
			fail(err)
		}
		spec.Cache = cache
		defer func() {
			fmt.Fprintf(os.Stderr, "vcasim: simcache %v in %s\n", cache.Stats(), cache.Dir())
		}()
	}
	res, err := vca.Run(spec, progs...)
	if err != nil {
		fail(err)
	}

	if *flagStats != "" {
		if err := writeStats(res, *flagStats, arch, progs, names); err != nil {
			fail(err)
		}
	}
	if *flagChrome != "" {
		if err := writeToFile(*flagChrome, spec.ChromeTrace.WriteJSON); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "vcasim: wrote %d trace events to %s (open at ui.perfetto.dev)\n",
			spec.ChromeTrace.Len(), *flagChrome)
	}

	fmt.Printf("arch=%s regs=%d ports=%d threads=%d\n", arch, *flagRegs, *flagPorts, len(progs))
	if *flagFastForward > 0 {
		fmt.Printf("fastforward=%d (functional; cycles and counters below cover the detailed region only)\n", *flagFastForward)
	}
	fmt.Printf("cycles=%d  IPC=%.3f\n", res.Cycles, res.IPC())
	for i, t := range res.Threads {
		fmt.Printf("thread %d (%s): committed=%d CPI=%.3f done=%v output=%q\n",
			i, names[i], t.Committed, t.CPI, t.Done, t.Output)
	}
	fmt.Printf("DL1 accesses=%d (program=%d spill/fill=%d window-trap=%d) missrate=%.4f\n",
		res.DL1.TotalAccesses(), res.DL1.Accesses[0], res.DL1.Accesses[1], res.DL1.Accesses[2], res.DL1.MissRate())
	fmt.Printf("mispredicts=%d squashed=%d windowTraps=%d spills=%d fills=%d\n",
		res.Mispredicts, res.Squashed, res.WindowTraps, res.SpillsIssued, res.FillsIssued)
	if res.VCAStats != nil {
		s := res.VCAStats
		fmt.Printf("vca: srcHits=%d fills=%d spills=%d overwriteFrees=%d tableEvicts=%d physEvicts=%d renameStalls=%d\n",
			s.SrcHits, s.Fills, s.Spills, s.Overwrites, s.TableConflictEvicts, s.PhysEvicts, s.RenameStalls)
	}
}

// writeStats dumps the run's event counters: CSV when the path ends in
// .csv, the full JSON document (with a run-identification header)
// otherwise.
func writeStats(res vca.Result, path string, arch vca.Arch, progs []*vca.Program, names []string) error {
	if strings.HasSuffix(path, ".csv") {
		return writeToFile(path, res.WriteStatsCSV)
	}
	var committed uint64
	for _, t := range res.Threads {
		committed += t.Committed
	}
	hdr := &vca.StatsHeader{
		Arch:      arch.String(),
		PhysRegs:  *flagRegs,
		Threads:   len(progs),
		Workloads: strings.Join(names, ","),
		Cycles:    res.Cycles,
		Committed: committed,
	}
	return writeToFile(path, func(w io.Writer) error { return res.WriteStats(w, hdr) })
}

func writeToFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vcasim:", err)
	os.Exit(1)
}
