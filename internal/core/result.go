package core

import (
	"math"

	"vca/internal/branch"
	"vca/internal/mem"
	"vca/internal/metrics"
	"vca/internal/rename"
)

func mathFloat64frombits(bits uint64) float64 { return math.Float64frombits(bits) }

// ThreadResult summarizes one hardware thread's execution.
type ThreadResult struct {
	Committed uint64
	Done      bool
	ExitCode  int64
	Output    string
	CPI       float64
}

// Result is everything the experiment harness consumes from one run.
type Result struct {
	Cycles  uint64
	Threads []ThreadResult

	DL1 mem.CacheStats
	IL1 mem.CacheStats
	L2  mem.CacheStats

	Mispredicts       uint64
	Squashed          uint64
	WindowTraps       uint64
	SpillsIssued      uint64
	FillsIssued       uint64
	RenameStallCycles uint64

	VCAStats *rename.VCAStats // nil on conventional machines
	Branch   branchSummary

	// Metrics is the machine's full event-counter registry (see
	// internal/metrics and docs/OBSERVABILITY.md); exporters read it via
	// Snapshot/WriteJSON/WriteCSV/CounterMap. It is excluded from JSON
	// serialization: a Result restored from the result cache
	// (internal/simcache) carries the flat counter map instead and has a
	// nil registry.
	Metrics *metrics.Registry `json:"-"`
}

type branchSummary struct {
	CondLookups uint64
	CondMispred uint64
	RASPredicts uint64
	BTBMisses   uint64
}

// IPC returns total committed instructions per cycle.
func (r *Result) IPC() float64 {
	var total uint64
	for _, t := range r.Threads {
		total += t.Committed
	}
	if r.Cycles == 0 {
		return 0
	}
	return float64(total) / float64(r.Cycles)
}

// DL1Accesses returns the total data-cache accesses — the Figure 5 metric
// (program + spill/fill + window-trap traffic, speculative included).
func (r *Result) DL1Accesses() uint64 { return r.DL1.TotalAccesses() }

func (m *Machine) result() *Result {
	m.stats.Cycles = m.cycle // mirror into the registered core.cycles counter
	r := &Result{
		Cycles:            m.cycle,
		Metrics:           m.metrics,
		DL1:               m.hier.DL1.Stats,
		IL1:               m.hier.IL1.Stats,
		L2:                m.hier.L2.Stats,
		Mispredicts:       m.stats.Mispredicts,
		Squashed:          m.stats.Squashed,
		WindowTraps:       m.stats.WindowTraps,
		SpillsIssued:      m.stats.SpillsIssued,
		FillsIssued:       m.stats.FillsIssued,
		RenameStallCycles: m.stats.RenameStallCycles,
		Branch: branchSummary{
			CondLookups: m.bp.CondLookups,
			CondMispred: m.bp.CondMispred,
			RASPredicts: m.bp.RASPredicts,
			BTBMisses:   m.bp.BTBMisses,
		},
	}
	if m.vca != nil {
		s := m.vca.Stats
		r.VCAStats = &s
	}
	for _, th := range m.threads {
		tr := ThreadResult{
			Committed: th.committed,
			Done:      th.done,
			ExitCode:  th.exitCode,
			Output:    th.output.String(),
		}
		if th.committed > 0 {
			tr.CPI = float64(m.cycle) / float64(th.committed)
		}
		r.Threads = append(r.Threads, tr)
	}
	return r
}

// Predictor exposes the branch predictor for white-box tests.
func (m *Machine) Predictor() *branch.Predictor { return m.bp }
