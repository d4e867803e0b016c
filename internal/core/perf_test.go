package core

import (
	"reflect"
	"runtime"
	"testing"

	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/workload"
)

// TestDeterminismFullResult runs the same configuration twice back to
// back and requires the complete Result — every counter, every cache
// stat, every thread summary — to be identical. This is the guard the
// uop pool and scratch-buffer reuse must never violate: recycled state
// leaking across instructions would show up here as a diverging stat.
func TestDeterminismFullResult(t *testing.T) {
	cases := []struct {
		name     string
		rename   RenameModel
		window   WindowModel
		abi      minic.ABI
		physRegs int
	}{
		{"vca-windowed-small", RenameVCA, WindowVCA, minic.ABIWindowed, 96},
		{"conv-window-traps", RenameConventional, WindowConventional, minic.ABIWindowed, 128},
		{"baseline-flat", RenameConventional, WindowNone, minic.ABIFlat, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := buildProg(t, "fib", srcFib, tc.abi)
			cfg := DefaultConfig(tc.rename, tc.window, 1, tc.physRegs)
			windowed := tc.abi == minic.ABIWindowed
			run := func() *Result {
				m, err := New(cfg, []*program.Program{p}, windowed)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			r1, r2 := run(), run()
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("back-to-back runs diverged:\nfirst:  %+v\nsecond: %+v", r1, r2)
			}
		})
	}
}

// TestSteadyStateAllocs pins the simulator's per-committed-instruction
// allocation rate near zero. With the uop pool, the page-cached memory,
// and the retained scratch buffers, a run's allocations are dominated by
// machine construction and one-time structure growth, both amortized
// over the commit budget; a regression that allocates per instruction
// (the pre-pool behavior was ~4 allocs/inst) trips this immediately.
//
// The fib machine runs without co-simulation, so it bounds the cycle
// loop alone. The crafty machine is BenchmarkSimThroughput's
// configuration (DefaultConfig, co-simulation on), so the same bound
// also covers the golden-model emulator stepping beside the core.
func TestSteadyStateAllocs(t *testing.T) {
	crafty, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	craftyProg, err := crafty.Build(minic.ABIFlat)
	if err != nil {
		t.Fatal(err)
	}
	fibCfg := DefaultConfig(RenameVCA, WindowNone, 1, 128)
	fibCfg.CoSim = false
	fibCfg.StopAfter = 40_000
	craftyCfg := DefaultConfig(RenameConventional, WindowNone, 1, 256)
	craftyCfg.StopAfter = 100_000
	if !craftyCfg.CoSim {
		t.Fatal("DefaultConfig no longer co-simulates; the crafty case assumes it does")
	}

	for _, tc := range []struct {
		name string
		cfg  Config
		prog *program.Program
	}{
		{"fib/vca-flat-128/no-cosim", fibCfg, buildProg(t, "fib", srcFib, minic.ABIFlat)},
		{"crafty/baseline-256/cosim", craftyCfg, craftyProg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Machine construction allocates (register file, predictor
			// tables, program pages, metric registry); measure it
			// separately so the bound tracks only the cycle loop itself.
			construction := testing.AllocsPerRun(3, func() {
				if _, err := New(tc.cfg, []*program.Program{tc.prog}, false); err != nil {
					t.Fatal(err)
				}
			})

			var committed uint64
			perRun := testing.AllocsPerRun(3, func() {
				m, err := New(tc.cfg, []*program.Program{tc.prog}, false)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				committed = res.Threads[0].Committed
			})
			if committed == 0 {
				t.Fatal("no instructions committed")
			}
			steady := perRun - construction
			perInst := steady / float64(committed)
			t.Logf("%.0f allocs/run (%.0f construction), %d committed, %.4f allocs/inst",
				perRun, construction, committed, perInst)
			if perInst > 0.05 {
				t.Errorf("steady-state allocation regression: %.4f allocs per committed instruction (want <= 0.05)", perInst)
			}
		})
	}
}

// TestConstructionBytes bounds the bytes New allocates per machine.
// Cache sets, wheel buckets and rename-table sets get storage on first
// use, so building a machine must not cost its Table 1 geometry up front
// (a 1 MB L2 directory, a 512-bucket ASTQ wheel, the ideal-window
// machine's 131,072-way rename table): allocated eagerly, these two
// machines cost about 1.0 and 1.5 MB. The bound is on bytes, not time,
// so it holds on any host.
func TestConstructionBytes(t *testing.T) {
	const machines = 10
	const bound = 400 << 10
	p := buildProg(t, "fib", srcFib, minic.ABIWindowed)
	for _, w := range []struct {
		name   string
		window WindowModel
	}{
		{"vca-windowed/64", WindowVCA},
		{"ideal-windowed/64", WindowIdeal},
	} {
		cfg := DefaultConfig(RenameVCA, w.window, 1, 64)
		if !cfg.CoSim {
			t.Fatal("DefaultConfig no longer co-simulates; this bound assumes it does")
		}
		build := func() {
			if _, err := New(cfg, []*program.Program{p}, true); err != nil {
				t.Fatal(err)
			}
		}
		build() // the program's shared predecode and text encoding
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < machines; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		perMachine := (after.TotalAlloc - before.TotalAlloc) / machines
		t.Logf("%s: %d bytes per machine", w.name, perMachine)
		if perMachine > bound {
			t.Errorf("%s: New allocates %d bytes per machine, want <= %d", w.name, perMachine, bound)
		}
	}
}
