package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/workload"
)

// TestQuiesceSkipInvisible runs every canonical machine on every
// workload with the quiesced-cycle skip on (the default) and off
// (Machine.noSkip), and requires an equal Result and metrics snapshot
// (every counter, as in the counter map, and every histogram): the skip
// only saves host time. A third, stepped run of each cell calls
// quiesceSkip directly and counts the cycles it jumps, so the matrix is
// known to cover cells where the skip fires.
func TestQuiesceSkipInvisible(t *testing.T) {
	const budget = 5_000
	var skipped atomic.Uint64
	t.Run("cells", func(t *testing.T) {
		for _, mc := range testMachines() {
			abi := minic.ABIFlat
			if mc.windowed {
				abi = minic.ABIWindowed
			}
			for _, b := range workload.All() {
				t.Run(mc.name+"/"+b.Name, func(t *testing.T) {
					t.Parallel()
					prog, err := b.Build(abi)
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					cfg := mc.cfg
					cfg.StopAfter = budget
					cfg.Check = false // TestCheckerMatrix covers it; here it would be 95% of the time
					newMachine := func() *Machine {
						m, err := New(cfg, []*program.Program{prog}, mc.windowed)
						if err != nil {
							t.Fatalf("new: %v", err)
						}
						return m
					}
					run := func(noSkip bool) *Result {
						m := newMachine()
						m.noSkip = noSkip
						res, err := m.Run()
						if err != nil {
							t.Fatalf("run (noSkip=%v): %v", noSkip, err)
						}
						return res
					}
					on, off := run(false), run(true)
					if !reflect.DeepEqual(on.Metrics.Snapshot(), off.Metrics.Snapshot()) {
						t.Error("metrics differ with the skip on and off")
					}
					onCmp, offCmp := *on, *off
					onCmp.Metrics, offCmp.Metrics = nil, nil
					if !reflect.DeepEqual(onCmp, offCmp) {
						t.Errorf("results differ:\nskip on:  %+v\nskip off: %+v", onCmp, offCmp)
					}

					m := newMachine()
					th := m.threads[0]
					s := &stepper{m: m}
					for !s.done && th.committed < budget {
						before := m.cycle
						s.step(t)
						if before > 0 && th.committed < budget {
							skipped.Add(m.cycle - before - 1)
						}
					}
				})
			}
		}
	})
	if skipped.Load() == 0 {
		t.Error("the quiesced-cycle skip never fired across the matrix")
	}
	t.Logf("quiesceSkip jumped %d cycles across the matrix", skipped.Load())
}
