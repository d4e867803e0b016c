// Command counterpointgate is the counter-oracle CI gate (`make
// counterpoint-gate`): it measures the golden matrix — the scheduler
// golden grid plus the windowed-SMT and checkpoint-restored cells
// (experiments.CounterpointMatrix) — through a fresh shared result
// cache, evaluates the full counterpoint predicate catalogue against
// every cell's counter map plus the cache's own simcache.* registry,
// and prints the per-predicate slack table EXPERIMENTS.md reproduces.
//
// The gate fails (exit 1) on either oracle failure mode:
//
//   - a refutation: some cell's counters violate a predicate — a real
//     accounting bug in the simulator, never acceptable at head;
//   - a vacuous predicate: a predicate that produced no non-vacuous
//     verdict across the whole matrix — an oracle that cannot fire
//     proves nothing, so the matrix (or the predicate) must change.
//
// Usage:
//
//	go run -race ./internal/tools/counterpointgate [-stop N] [-jobs N] [-out report.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"vca/internal/counterpoint"
	"vca/internal/experiments"
)

var (
	flagStop = flag.Uint64("stop", experiments.MatrixStop, "per-cell commit budget (instructions)")
	flagJobs = flag.Int("jobs", 0, "parallel workers (0 = GOMAXPROCS)")
	flagOut  = flag.String("out", "", "write the refinement report JSON to this file")
	flagV    = flag.Bool("v", false, "print every measured cell")
)

func main() {
	flag.Parse()

	ins, err := counterpoint.MeasureMatrix(*flagStop, *flagJobs)
	if err != nil {
		fail(err)
	}
	preds := counterpoint.Catalog()
	rep := counterpoint.NewReport("matrix", preds)
	rep.Cells = len(ins)
	for _, in := range ins {
		if *flagV {
			fmt.Printf("cell %-40s ok\n", in.Cell)
		}
		// Matrix cells are fixed benchmarks, not generated specs: a
		// refutation names its cell and is not shrunk.
		rep.Record(in.Cell, preds, counterpoint.EvalAll(preds, in))
	}
	rep.Finish()
	rep.WriteTable(os.Stdout)

	if *flagOut != "" {
		b, err := rep.MarshalIndent()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*flagOut, append(b, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("report: %s\n", *flagOut)
	}

	bad := false
	for _, ref := range rep.Refutations {
		fmt.Printf("REFUTED %s at %s: %s (slack %d)\n", ref.Predicate, ref.Cell, ref.Algebra, ref.Slack)
		wk := make([]string, 0, len(ref.Witness))
		for k := range ref.Witness { //lint:maporder keys are collected then sorted before printing
			wk = append(wk, k)
		}
		slices.Sort(wk)
		for _, k := range wk {
			fmt.Printf("    witness %s = %d\n", k, ref.Witness[k])
		}
		bad = true
	}
	for _, name := range rep.VacuousEverywhere() {
		fmt.Printf("VACUOUS %s: no matrix cell exercised this predicate\n", name)
		bad = true
	}
	if bad {
		os.Exit(1)
	}
	fmt.Printf("counterpoint-gate: %d predicates held across %d cells, none vacuous\n",
		len(preds), rep.Cells)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "counterpointgate:", err)
	os.Exit(1)
}
