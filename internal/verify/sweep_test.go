package verify_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"vca/internal/counterpoint"
	"vca/internal/verify"
)

// sweepInput is one judge's sweep as a function of the worker count: it
// returns the sweep's serialized result and reports each case's
// progress index.
type sweepInput struct {
	name string
	n    int
	run  func(t *testing.T, jobs int, progress func(i int)) []byte
}

// sweepInputs are the two judges the sweep driver serves:
//
//   - lockstep over the given plan, with RunOne stubbed (stubRunOne) so
//     a fixed subset of cases diverges and shrinking and repro assembly
//     run too, checking that every planned case ran;
//   - the counter oracle on a slice of the refute-and-refine plan with
//     a seeded fault (core.commit.uops inflated by 2^40) that refutes
//     issue-ge-commit in every cell, so every cell shrinks.
func sweepInputs(lockstep []verify.Case) []sweepInput {
	cells := counterpoint.PlanSweep(1)[:4]
	return []sweepInput{
		{"lockstep", len(lockstep), func(t *testing.T, jobs int, progress func(int)) []byte {
			ran := stubRunOne(t)
			var results [][]verify.Repro
			err := verify.Sweep(lockstep, jobs, verify.Lockstep, func(i int, repros []verify.Repro, _ error) {
				results = append(results, repros)
				progress(i)
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range lockstep {
				if !ran(c.Program.Seed) {
					t.Errorf("jobs=%d: planned case with seed %d never ran", jobs, c.Program.Seed)
				}
			}
			b, err := json.Marshal(results)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"counterpoint", len(cells), func(t *testing.T, jobs int, progress func(int)) []byte {
			rep, err := counterpoint.Sweep(cells, counterpoint.SweepOptions{
				Seed:       1,
				Jobs:       jobs,
				Predicates: []string{"issue-ge-commit"},
				Fault:      &counterpoint.Perturb{Counter: "core.commit.uops", Delta: 1 << 40},
				Progress:   func(i int, _ string, _ int, _ error) { progress(i) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.AnyRefuted() {
				t.Fatal("seeded fault refuted nothing")
			}
			b, err := rep.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}
}

// stubRunOne replaces the run behind the Lockstep judge until the test
// ends. The stub is deterministic in the case content, never in the
// call order, so results can be compared across worker counts: it
// diverges on every third program seed and sleeps a seed-dependent few
// milliseconds so that completions race under several workers. ran
// reports whether a program seed was ever run.
func stubRunOne(t *testing.T) (ran func(seed int64) bool) {
	var mu sync.Mutex
	seen := map[int64]bool{}
	t.Cleanup(verify.SetRunOne(func(ms verify.MachineSpec, ps verify.ProgramSpec) error {
		mu.Lock()
		seen[ps.Seed] = true
		mu.Unlock()
		time.Sleep(time.Duration(ps.Seed%5) * time.Millisecond)
		if ps.Seed%3 == 0 {
			return errors.New("synthetic divergence")
		}
		return nil
	}))
	return func(seed int64) bool {
		mu.Lock()
		defer mu.Unlock()
		return seen[seed]
	}
}

// TestPlanIndependentOfWorkerCount is the RNG-derivation regression
// test: the sweep's sampled machines and program repro seeds must be a
// pure function of (seed, n) — never of how many workers execute the
// runs or in which order they finish. Plan samples sequentially up
// front, so two plans agree exactly; and each judge's sweep, run on 1
// and on 4 workers, gives byte-identical results and the same progress
// order.
func TestPlanIndependentOfWorkerCount(t *testing.T) {
	const n = 12
	a, b := verify.Plan(1234, n), verify.Plan(1234, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Plan is not deterministic")
	}
	seeds := map[int64]bool{}
	for _, c := range a {
		seeds[c.Program.Seed] = true
	}
	if len(seeds) != n {
		t.Errorf("program seeds not distinct: %d unique of %d", len(seeds), n)
	}

	for _, in := range sweepInputs(a) {
		t.Run(in.name, func(t *testing.T) {
			var outs [][]byte
			var orders [][]int
			for _, jobs := range []int{1, 4} {
				var order []int
				outs = append(outs, in.run(t, jobs, func(i int) { order = append(order, i) }))
				orders = append(orders, order)
			}
			if !bytes.Equal(outs[0], outs[1]) {
				t.Errorf("results differ between 1 and 4 workers:\n%s\nvs\n%s", outs[0], outs[1])
			}
			if !reflect.DeepEqual(orders[0], orders[1]) {
				t.Errorf("progress order differs between 1 and 4 workers: %v vs %v", orders[0], orders[1])
			}
		})
	}
}

// TestSweepProgressInOrder: progress callbacks arrive strictly in case
// order even when completions race.
func TestSweepProgressInOrder(t *testing.T) {
	for _, in := range sweepInputs(verify.Plan(9, 16)) {
		t.Run(in.name, func(t *testing.T) {
			var got []int
			in.run(t, 4, func(i int) {
				got = append(got, i) // serialized by the driver's ordered delivery
			})
			if len(got) != in.n {
				t.Fatalf("progress fired %d times, want %d", len(got), in.n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("progress out of order at %d: %v", i, got)
				}
			}
		})
	}
}
