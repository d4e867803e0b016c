package verify

// counters.go — counter-map extraction for the counterpoint oracle.
// Where RunOne runs a spec in full lockstep (co-simulation + per-cycle
// invariant checker) and reports divergence, RunCounters runs the same
// spec as a plain measurement: checker and co-sim off, and the result
// is the run's counter map plus the config-derived parameters the
// counter-algebra predicates reference. The counterpoint sweep and its
// shrinker callbacks funnel through here, so a predicate refutation is
// a statement about the *measured machine*, independent of the
// invariant checker's own bookkeeping.

import (
	"vca/internal/core"
	"vca/internal/isa"
)

// Params returns the configuration-derived parameters counterpoint
// predicates may reference (pipeline width, thread count, register
// file size, window slots, DL1 ports), with defaults resolved exactly
// as the machine resolves them.
func (s MachineSpec) Params() (map[string]uint64, error) {
	cfg, err := s.coreConfig()
	if err != nil {
		return nil, err
	}
	return ConfigParams(cfg), nil
}

// ConfigParams derives the predicate parameter map from a resolved
// core configuration (the non-spec path used by the golden matrix).
func ConfigParams(cfg core.Config) map[string]uint64 {
	return map[string]uint64{
		"width":        uint64(cfg.Width),
		"threads":      uint64(cfg.Threads),
		"phys_regs":    uint64(cfg.PhysRegs),
		"window_slots": uint64(isa.WindowSlots),
		"dl1_ports":    uint64(cfg.Hier.DL1Ports),
	}
}

// RunCounters executes one (machine, program) pair as a measurement
// run — co-simulation and the invariant checker disabled — and returns
// its counter map. The run is capped at MaxCycles like every verify
// run, so a pathological configuration errors out instead of hanging.
func RunCounters(ms MachineSpec, ps ProgramSpec) (map[string]uint64, error) {
	res, err := run(ms, ps, false)
	if err != nil {
		return nil, err
	}
	return res.Metrics.CounterMap(), nil
}
