package main

// counterpoint.go — the -counterpoint selector: refute-and-refine over
// the randomized config cross-product. Unlike the golden-matrix gate
// (internal/tools/counterpointgate), this sweep runs generated programs
// on generated machines, so every refutation can hand its (machine,
// program) pair to the verify shrinker for a minimal JSON repro.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"vca/internal/counterpoint"
)

// counterpointSweep runs the counter-oracle sweep and exits non-zero
// if any predicate was refuted (printing each refutation with its
// shrunk repro as JSON) or if the harness itself failed. A predicate
// that is vacuous across this sweep is reported but not fatal — the
// golden-matrix gate owns the vacuity guarantee.
func counterpointSweep(seed int64, predicates, reportPath string) {
	var names []string
	if predicates != "" {
		for _, n := range strings.Split(predicates, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}

	fmt.Printf("== Counter-oracle sweep: seed %d ==\n", seed)
	cells := counterpoint.PlanSweep(seed)
	rep, err := counterpoint.Sweep(cells, counterpoint.SweepOptions{
		Seed:       seed,
		Jobs:       *flagJobs,
		Predicates: names,
		Progress: func(i int, cell string, refuted int, err error) {
			status := "ok"
			switch {
			case err != nil:
				status = "ERROR"
			case refuted > 0:
				status = fmt.Sprintf("%d REFUTED", refuted)
			}
			fmt.Printf("cell %3d/%d %-44s %s\n", i+1, len(cells), cell, status)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: counterpoint harness failures:", err)
	}
	if rep == nil {
		os.Exit(1)
	}

	fmt.Println()
	rep.WriteTable(os.Stdout)
	for _, name := range rep.VacuousEverywhere() {
		fmt.Printf("note: %s was vacuous across this sweep (the golden-matrix gate covers it)\n", name)
	}

	if reportPath != "" {
		b, merr := rep.MarshalIndent()
		check(merr)
		check(os.WriteFile(reportPath, append(b, '\n'), 0o644))
		fmt.Printf("report: %s\n", reportPath)
	}

	if len(rep.Refutations) == 0 && err == nil {
		fmt.Printf("all %d predicates survived %d cells; no refutations\n", len(rep.Predicates), rep.Cells)
		return
	}
	for _, ref := range rep.Refutations {
		b, merr := json.MarshalIndent(ref, "", "  ")
		check(merr)
		fmt.Printf("refutation:\n%s\n", b)
	}
	os.Exit(1)
}
