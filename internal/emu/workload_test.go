package emu_test

import (
	"testing"

	"vca/internal/emu"
	"vca/internal/minic"
	"vca/internal/workload"
)

// TestEnginesMatchOracleOnBenchmarks runs every benchmark under both
// ABIs through the reference interpreter and the predecoded engine: the
// opening stretch in per-instruction lockstep (StepInfo and errors every
// step, full state every 1024 steps), then a complete Run whose stop
// reason, statistics, output and final memory must all match. The
// complete runs are the functional profiles behind Table 2.
func TestEnginesMatchOracleOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 30 benchmark profiles twice; skipped in -short")
	}
	for _, b := range workload.All() {
		for _, abi := range []minic.ABI{minic.ABIFlat, minic.ABIWindowed} {
			t.Run(b.Name+"/"+abi.String(), func(t *testing.T) {
				t.Parallel()
				prog, err := b.Build(abi)
				if err != nil {
					t.Fatal(err)
				}
				windowed := abi == minic.ABIWindowed
				emu.Lockstep(t, prog, windowed, 100_000, 1024)
				emu.RunMatchesOracle(t, prog, emu.Config{Windowed: windowed, MaxInsts: 1 << 32})
			})
		}
	}
}
