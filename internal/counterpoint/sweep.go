package counterpoint

import (
	"fmt"
	"math/rand"

	"vca/internal/progen"
	"vca/internal/verify"
)

// EvalAll evaluates a predicate set against one input, in order.
func EvalAll(preds []Predicate, in Input) []Verdict {
	out := make([]Verdict, len(preds))
	for i, p := range preds {
		out[i] = p.Eval(in)
	}
	return out
}

// PlanSweep expands the refute-and-refine cross-product: every
// rename/window family × thread count × tight/roomy register file ×
// program profile, with each cell's program seed drawn sequentially
// from one RNG so the plan is a pure function of the base seed
// (worker-count independent, like verify.Plan). Cells the machine
// constructor would refuse are filtered out.
func PlanSweep(seed int64) []verify.Case {
	r := rand.New(rand.NewSource(seed))

	type family struct{ rename, window string }
	families := []family{
		{"conventional", "none"},
		{"conventional", "conv"},
		{"vca", "none"},
		{"vca", "ideal"},
		{"vca", "vca"},
	}

	profiles := []progen.Config{
		{Blocks: 10},
		{Blocks: 12, Loops: true, Aliasing: true},
		{Helpers: 3, Blocks: 8, Recursion: true, MaxRecDepth: 6},
	}

	var out []verify.Case
	for _, fam := range families {
		for _, threads := range []int{1, 2} {
			for _, roomy := range []bool{false, true} {
				regs := physRegsFor(fam.rename, fam.window, threads, roomy)
				for pi, prof := range profiles {
					gen := prof
					if fam.window != "none" && pi == 2 {
						gen.WindowLadder = 4 // stress the window stack on windowed machines
					}
					c := verify.Case{
						Machine: verify.MachineSpec{
							Rename:   fam.rename,
							Window:   fam.window,
							Threads:  threads,
							PhysRegs: regs,
						},
						Program: verify.ProgramSpec{Seed: r.Int63(), Gen: gen},
					}
					if !c.Machine.Constructs() {
						continue
					}
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// physRegsFor picks a tight or roomy register file for a machine
// family: tight sizes stress spill/eviction paths, roomy sizes the
// steady state. Conventional machines need the full per-thread logical
// file resident; VCA needs only its register cache.
func physRegsFor(rename, window string, threads int, roomy bool) int {
	switch {
	case rename == "vca":
		if roomy {
			return 192
		}
		return 40 + 8*threads
	case window == "conv":
		// The windowed logical file scales with PhysRegs (nwin resident
		// windows), so conventional-window SMT only constructs in the
		// single-resident-window band; single-thread machines can afford
		// a deeper resident stack.
		if threads >= 2 {
			if roomy {
				return 159
			}
			return 144
		}
		if roomy {
			return 352 // eight resident windows
		}
		return 160 // two resident windows
	default: // conventional flat
		if roomy {
			return 65*threads + 160
		}
		return 65*threads + 32
	}
}

// cellName renders a sweep cell's stable identifier.
func cellName(i int, c verify.Case) string {
	return fmt.Sprintf("sweep[%03d] %s/%s t%d r%d seed%d",
		i, c.Machine.Rename, c.Machine.Window, c.Machine.Threads, c.Machine.PhysRegs, c.Program.Seed)
}

// SweepOptions configures a refute-and-refine hunt.
type SweepOptions struct {
	Seed       int64    // the seed the cells were planned from (PlanSweep), recorded in the report
	Jobs       int      // parallel workers (0 = GOMAXPROCS)
	Predicates []string // subset of catalogue names (nil = all)
	Fault      *Perturb // optional perturbation applied to every cell
	// Progress, when set, is called once per cell in cell order: the
	// cell's index and name, its refutation count, and the error that
	// kept it from being judged (nil when it was).
	Progress func(i int, cell string, refuted int, err error)
}

// Sweep judges the planned cells (PlanSweep's plan, or a slice of it)
// on the verify sweep driver: every predicate is evaluated against each
// cell's counter map, and each refutation is shrunk to a minimal
// (machine, program) repro on which the predicate still refutes, fault
// re-applied. It returns the refinement report. The returned error
// aggregates harness-level failures (a cell that will not simulate),
// never a mere refutation — refutations are the report's payload.
func Sweep(cells []verify.Case, opts SweepOptions) (*Report, error) {
	preds, err := ByName(opts.Predicates)
	if err != nil {
		return nil, err
	}

	// Written by the judge on cell i's worker: the cell's verdicts and,
	// per refutation, the verdict its shrunk repro measured.
	verdicts := make([][]Verdict, len(cells))
	shrunk := make([][]Verdict, len(cells))
	judge := func(i int, c verify.Case) ([]verify.Finding, error) {
		in, err := runCell(c, opts.Fault)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cellName(i, c), err)
		}
		verdicts[i] = EvalAll(preds, in)
		var findings []verify.Finding
		for pi, v := range verdicts[i] {
			if v.Status != StatusRefuted {
				continue
			}
			k := len(shrunk[i])
			shrunk[i] = append(shrunk[i], v)
			findings = append(findings, verify.Finding{Failure: v.Predicate, Fails: func(m verify.MachineSpec, p verify.ProgramSpec) bool {
				in, err := runCell(verify.Case{Machine: m, Program: p}, opts.Fault)
				if err != nil {
					return false // a cell that no longer simulates is not a repro
				}
				sv := preds[pi].Eval(in)
				if sv.Status != StatusRefuted {
					return false
				}
				shrunk[i][k] = sv // Shrink returns the last pair its test accepted
				return true
			}})
		}
		return findings, nil
	}

	rep := NewReport("sweep", preds)
	rep.Seed, rep.Cells, rep.Fault = opts.Seed, len(cells), opts.Fault
	runErr := verify.Sweep(cells, opts.Jobs, judge, func(i int, repros []verify.Repro, err error) {
		name := cellName(i, cells[i])
		if err == nil {
			refs := rep.Record(name, preds, verdicts[i])
			for k, r := range repros {
				refs[k].Machine, refs[k].Program = &cells[i].Machine, &cells[i].Program
				refs[k].Shrunk = &verify.Case{Machine: r.Machine, Program: r.Program}
				refs[k].ShrunkSlack, refs[k].ShrunkWitness = shrunk[i][k].Slack, shrunk[i][k].Witness
			}
		}
		if opts.Progress != nil {
			opts.Progress(i, name, len(repros), err)
		}
	})
	rep.Finish()
	return rep, runErr
}

// runCell measures one sweep cell: counter map plus parameters, with
// the optional fault applied to the counters before evaluation.
func runCell(c verify.Case, fault *Perturb) (Input, error) {
	counters, err := verify.RunCounters(c.Machine, c.Program)
	if err != nil {
		return Input{}, err
	}
	params, err := c.Machine.Params()
	if err != nil {
		return Input{}, err
	}
	if fault != nil {
		counters = fault.Apply(counters)
	}
	return Input{Counters: counters, Params: params}, nil
}
