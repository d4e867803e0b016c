package counterpoint

// matrix_test.go — the oracle's teeth, proven against the golden
// matrix (experiments.CounterpointMatrix, the same cell set `make
// counterpoint-gate` measures):
//
//   - no predicate is refuted at head, and none is vacuous across the
//     whole matrix (an oracle that cannot fire proves nothing);
//   - every concrete counter any predicate reads has teeth: perturbing
//     it makes at least one predicate refute somewhere;
//   - every predicate in the catalogue can itself be made to fire by
//     perturbing one of the counters it reads.
//
// The matrix is simulated once (all cells, shared across the tests in
// this file); perturbation and re-evaluation are pure map operations.

import (
	"sort"
	"sync"
	"testing"

	"vca/internal/experiments"
)

var (
	matrixOnce sync.Once
	matrixIns  []Input
	matrixErr  error
)

// matrixInputs measures the golden matrix once (MeasureMatrix, exactly
// what the counterpoint gate evaluates) for every test in this file.
func matrixInputs(t *testing.T) []Input {
	t.Helper()
	matrixOnce.Do(func() {
		matrixIns, matrixErr = MeasureMatrix(experiments.MatrixStop, 0)
	})
	if matrixErr != nil {
		t.Fatalf("measuring golden matrix: %v", matrixErr)
	}
	return matrixIns
}

// TestMatrixCleanAndNoVacuousPredicates is the in-tree form of the
// counterpoint gate's two failure modes: no refutation anywhere, and
// no predicate vacuous across every cell.
func TestMatrixCleanAndNoVacuousPredicates(t *testing.T) {
	ins := matrixInputs(t)
	preds := Catalog()
	rep := NewReport("matrix", preds)
	rep.Cells = len(ins)
	for _, in := range ins {
		rep.Record(in.Cell, preds, EvalAll(preds, in))
	}
	for _, ref := range rep.Refutations {
		t.Errorf("%s refuted at %s (slack %d, witness %v)", ref.Predicate, ref.Cell, ref.Slack, ref.Witness)
	}
	for _, name := range rep.VacuousEverywhere() {
		t.Errorf("%s is vacuous across the whole matrix: no cell exercises it", name)
	}
}

// teethDeltas are the two perturbation directions the teeth tests
// inject: a huge inflation and a full drain (Apply clamps at zero).
var teethDeltas = []int64{1 << 40, -(1 << 40)}

// referencedCounters returns the sorted union of concrete counter
// names any catalogue predicate reads from any matrix input, filtered
// to names actually registered by at least one cell.
func referencedCounters(ins []Input) []string {
	seen := map[string]bool{}
	for _, in := range ins {
		for _, p := range Catalog() {
			for _, name := range p.Counters(in) {
				if _, ok := in.Counters[name]; ok {
					seen[name] = true
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestEveryReferencedCounterHasTeeth proves the oracle watches every
// counter it claims to: for each registered counter any predicate
// reads, some perturbation of that counter alone must make at least
// one predicate refute in at least one matrix cell. A counter that
// survives both deltas unrefuted is dead weight in the algebra — the
// catalogue would never notice it going wrong.
func TestEveryReferencedCounterHasTeeth(t *testing.T) {
	ins := matrixInputs(t)
	preds := Catalog()
	names := referencedCounters(ins)
	if len(names) < 30 {
		t.Fatalf("only %d referenced counters — catalogue or matrix shrank unexpectedly", len(names))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, delta := range teethDeltas {
				fault := Perturb{Counter: name, Delta: delta}
				for _, cell := range ins {
					if _, ok := cell.Counters[name]; !ok {
						continue
					}
					perturbed := Input{Cell: cell.Cell, Counters: fault.Apply(cell.Counters), Params: cell.Params}
					for _, v := range EvalAll(preds, perturbed) {
						if v.Status == StatusRefuted {
							return // this counter has teeth
						}
					}
				}
			}
			t.Errorf("no predicate refutes when %q is perturbed by %v in any matrix cell", name, teethDeltas)
		})
	}
}

// TestEveryPredicateCanFire proves each predicate is individually
// falsifiable: some single-counter perturbation of its own referenced
// counters makes *that* predicate refute in some matrix cell. This is
// the acceptance bar for adding a predicate to the catalogue — an
// assumption no fault can violate is not an assumption worth sweeping.
func TestEveryPredicateCanFire(t *testing.T) {
	ins := matrixInputs(t)
	for _, p := range Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			for _, cell := range ins {
				for _, name := range p.Counters(cell) {
					if _, ok := cell.Counters[name]; !ok {
						continue
					}
					for _, delta := range teethDeltas {
						fault := Perturb{Counter: name, Delta: delta}
						perturbed := Input{Cell: cell.Cell, Counters: fault.Apply(cell.Counters), Params: cell.Params}
						if p.Eval(perturbed).Status == StatusRefuted {
							return // provably able to fire
						}
					}
				}
			}
			t.Errorf("%s: no single-counter perturbation fires it in any matrix cell", p.Name)
		})
	}
}
