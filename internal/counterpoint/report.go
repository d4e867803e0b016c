package counterpoint

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"vca/internal/verify"
)

// ReportSchema versions the refinement-report JSON. Bump on any field
// change; the golden fixture in testdata pins the current shape.
const ReportSchema = 1

// Report is the machine-readable refinement report a counter-oracle
// hunt produces: per-predicate tallies with the tightest observed
// slack, plus one Refutation per (cell, predicate) violation carrying
// the witness values and the shrunk minimal reproduction.
type Report struct {
	Schema int      `json:"schema"`
	Source string   `json:"source"`          // "matrix" or "sweep"
	Seed   int64    `json:"seed,omitempty"`  // sweep plan seed
	Cells  int      `json:"cells"`           // cells evaluated
	Fault  *Perturb `json:"fault,omitempty"` // injected perturbation, if any

	Predicates  []PredicateSummary `json:"predicates"`
	Refutations []Refutation       `json:"refutations,omitempty"`

	index map[string]int // predicate name -> Predicates index
}

// PredicateSummary tallies one predicate across every evaluated cell.
// MinSlack is the tightest margin among cells where the predicate held
// — the "how close to refuted" honesty number — and MinSlackCell names
// the cell that produced it.
type PredicateSummary struct {
	Name    string `json:"name"`
	Algebra string `json:"algebra"`
	Desc    string `json:"desc"`

	Holds   int `json:"holds"`
	Refuted int `json:"refuted"`
	Vacuous int `json:"vacuous"`

	MinSlack     *int64 `json:"min_slack,omitempty"`
	MinSlackCell string `json:"min_slack_cell,omitempty"`
}

// Refutation is one observed violation: the predicate, the cell that
// refuted it, the witness counter values, and — for sweep cells, where
// the failing configuration is a serializable spec — the original and
// shrunk (machine, program) pairs. ShrunkWitness/ShrunkSlack record the
// violation as reproduced by the minimal config.
type Refutation struct {
	Predicate string            `json:"predicate"`
	Algebra   string            `json:"algebra"`
	Cell      string            `json:"cell"`
	Slack     int64             `json:"slack"`
	Witness   map[string]uint64 `json:"witness,omitempty"`

	Machine       *verify.MachineSpec `json:"machine,omitempty"`
	Program       *verify.ProgramSpec `json:"program,omitempty"`
	Shrunk        *verify.Case        `json:"shrunk,omitempty"`
	ShrunkSlack   int64               `json:"shrunk_slack,omitempty"`
	ShrunkWitness map[string]uint64   `json:"shrunk_witness,omitempty"`
}

// NewReport starts an empty report over a predicate set, with one
// summary row per predicate in catalogue order.
func NewReport(source string, preds []Predicate) *Report {
	r := &Report{
		Schema: ReportSchema,
		Source: source,
		index:  make(map[string]int, len(preds)),
	}
	for _, p := range preds {
		r.index[p.Name] = len(r.Predicates)
		r.Predicates = append(r.Predicates, PredicateSummary{
			Name:    p.Name,
			Algebra: p.Algebra(),
			Desc:    p.Desc,
		})
	}
	return r
}

// Record folds one cell's verdicts (EvalAll over preds) into the
// per-predicate tallies and adds a Refutation for each refuted verdict.
// It returns the added refutations, in verdict order, so a sweep can
// attach the cell's repros to them.
func (r *Report) Record(cell string, preds []Predicate, vs []Verdict) []Refutation {
	n := len(r.Refutations)
	for pi, v := range vs {
		r.observe(cell, v)
		if v.Status == StatusRefuted {
			r.Refutations = append(r.Refutations, Refutation{
				Predicate: v.Predicate,
				Algebra:   preds[pi].Algebra(),
				Cell:      cell,
				Slack:     v.Slack,
				Witness:   v.Witness,
			})
		}
	}
	return r.Refutations[n:]
}

// observe folds one verdict into the predicate's summary row.
func (r *Report) observe(cell string, v Verdict) {
	i, ok := r.index[v.Predicate]
	if !ok {
		return
	}
	s := &r.Predicates[i]
	switch v.Status {
	case StatusHolds:
		s.Holds++
		if s.MinSlack == nil || v.Slack < *s.MinSlack {
			slack := v.Slack
			s.MinSlack = &slack
			s.MinSlackCell = cell
		}
	case StatusRefuted:
		s.Refuted++
	case StatusVacuous:
		s.Vacuous++
	}
}

// Finish sorts the refutation list (cell, then predicate) so the
// report is deterministic regardless of worker scheduling.
func (r *Report) Finish() {
	slices.SortFunc(r.Refutations, func(a, b Refutation) int {
		if a.Cell != b.Cell {
			return strings.Compare(a.Cell, b.Cell)
		}
		return strings.Compare(a.Predicate, b.Predicate)
	})
}

// AnyRefuted reports whether any predicate was refuted anywhere.
func (r *Report) AnyRefuted() bool {
	for _, s := range r.Predicates {
		if s.Refuted > 0 {
			return true
		}
	}
	return false
}

// VacuousEverywhere lists predicates that never produced a non-vacuous
// verdict across the whole report — assumptions the evaluated cells
// never exercised, which the counterpoint gate treats as a failure
// (an oracle that cannot fire proves nothing).
func (r *Report) VacuousEverywhere() []string {
	var out []string
	for _, s := range r.Predicates {
		if s.Holds == 0 && s.Refuted == 0 {
			out = append(out, s.Name)
		}
	}
	return out
}

// WriteTable writes the per-predicate tally table: holds, refuted and
// vacuous counts, with the tightest slack and the cell that produced it.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-28s %6s %8s %8s %14s  %s\n", "predicate", "holds", "refuted", "vacuous", "min-slack", "tightest cell")
	for _, s := range r.Predicates {
		slack, cell := "-", ""
		if s.MinSlack != nil {
			slack, cell = fmt.Sprint(*s.MinSlack), s.MinSlackCell
		}
		fmt.Fprintf(w, "%-28s %6d %8d %8d %14s  %s\n", s.Name, s.Holds, s.Refuted, s.Vacuous, slack, cell)
	}
}

// MarshalIndent renders the report as stable, human-diffable JSON.
func (r *Report) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
