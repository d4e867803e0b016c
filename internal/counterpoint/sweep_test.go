package counterpoint

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vca/internal/verify"
)

var update = flag.Bool("update", false, "rewrite golden fixtures from this run")

// TestPlanSweepDeterministicAndConstructs pins the sweep plan: a seed
// fully determines the cell list, every planned machine constructs,
// and the cross-product is big enough to mean something.
func TestPlanSweepDeterministicAndConstructs(t *testing.T) {
	a, b := PlanSweep(7), PlanSweep(7)
	if len(a) == 0 {
		t.Fatal("empty sweep plan")
	}
	if len(a) < 40 {
		t.Errorf("sweep plan has %d cells, want >= 40", len(a))
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Error("same seed planned different sweeps")
	}
	for i, c := range a {
		if !c.Machine.Constructs() {
			t.Errorf("cell %d (%+v) does not construct", i, c.Machine)
		}
	}
	jc, _ := json.Marshal(PlanSweep(8))
	if bytes.Equal(ja, jc) {
		t.Error("different seeds planned identical sweeps")
	}
}

// TestSeededRefutationShrinksAndReportRoundTrips is the refute-and-
// refine loop end to end with an injected fault: inflating
// core.commit.uops must refute issue-ge-commit, each refutation must
// shrink to a repro no larger than the original that still refutes,
// and the refinement report must match the golden fixture byte for
// byte and survive a JSON round trip.
func TestSeededRefutationShrinksAndReportRoundTrips(t *testing.T) {
	fault := &Perturb{Counter: "core.commit.uops", Delta: 1 << 40}
	rep, err := Sweep(PlanSweep(1)[:2], SweepOptions{
		Seed:       1,
		Predicates: []string{"issue-ge-commit"},
		Fault:      fault,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if !rep.AnyRefuted() {
		t.Fatal("injected commit-uops inflation did not refute issue-ge-commit")
	}
	if len(rep.Refutations) != 2 {
		t.Fatalf("got %d refutations, want one per cell (2)", len(rep.Refutations))
	}
	for _, ref := range rep.Refutations {
		if ref.Predicate != "issue-ge-commit" {
			t.Errorf("unexpected predicate %s refuted at %s", ref.Predicate, ref.Cell)
		}
		if ref.Shrunk == nil {
			t.Fatalf("%s: no shrunk repro", ref.Cell)
		}
		if ref.ShrunkSlack >= 0 {
			t.Errorf("%s: shrunk repro no longer refutes (slack %d)", ref.Cell, ref.ShrunkSlack)
		}
		orig, _ := json.Marshal(verify.Case{Machine: *ref.Machine, Program: *ref.Program})
		shrunk, _ := json.Marshal(*ref.Shrunk)
		if len(shrunk) > len(orig) {
			t.Errorf("%s: shrunk repro larger than original (%d > %d bytes)", ref.Cell, len(shrunk), len(orig))
		}
	}

	got, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "refutation_report.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("refinement report drifted from golden fixture %s (run with -update and review the diff)\ngot:\n%s", golden, got)
	}

	var back Report
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != ReportSchema || back.Source != "sweep" || back.Fault == nil ||
		back.Fault.Counter != fault.Counter || len(back.Refutations) != len(rep.Refutations) {
		t.Errorf("round-tripped report lost fields: %+v", back)
	}
	if back.Refutations[0].Shrunk == nil || back.Refutations[0].Witness == nil {
		t.Error("round-tripped refutation lost its shrunk repro or witness")
	}
}

// TestSweepCleanAtHead spot-checks the oracle on unperturbed cells: a
// slice of the real sweep must produce no refutations and a populated
// per-predicate summary.
func TestSweepCleanAtHead(t *testing.T) {
	rep, err := Sweep(PlanSweep(1)[:4], SweepOptions{Seed: 1})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if rep.AnyRefuted() {
		for _, ref := range rep.Refutations {
			t.Errorf("%s refuted at %s (slack %d, witness %v)", ref.Predicate, ref.Cell, ref.Slack, ref.Witness)
		}
	}
	if rep.Cells != 4 || len(rep.Predicates) != len(Catalog()) {
		t.Errorf("report shape: cells %d, predicates %d", rep.Cells, len(rep.Predicates))
	}
	holds := 0
	for _, s := range rep.Predicates {
		holds += s.Holds
	}
	if holds == 0 {
		t.Error("no predicate held anywhere — sweep inputs are empty?")
	}
}
