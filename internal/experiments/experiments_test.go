package experiments

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"vca/internal/simcache"
	"vca/internal/workload"
)

const testStop = 60_000 // per-run commit budget keeps the matrix fast

func TestTable2(t *testing.T) {
	rows, avg, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.All()) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Ratio >= 1.001 || r.Ratio < 0.6 {
			t.Errorf("%s ratio %.3f out of range", r.Benchmark, r.Ratio)
		}
	}
	if avg < 0.85 || avg > 0.99 {
		t.Errorf("average ratio %.3f", avg)
	}
}

func TestRegWindowSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	if raceDetectorOn {
		t.Skip("full-budget sweep takes tens of minutes under the race detector (see race_on_test.go)")
	}
	cells, err := RegWindowSweep(2, testStop)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline cannot run at 64 registers; VCA and ideal can.
	if _, ok := Cell(cells, ArchBaseline, 64); ok {
		t.Error("baseline should be invalid at 64 registers")
	}
	if _, ok := Cell(cells, ArchConvWindow, 64); ok {
		t.Error("conventional windows should be invalid at 64 registers")
	}
	vca64, ok := Cell(cells, ArchVCAWindow, 64)
	if !ok {
		t.Fatal("VCA must run at 64 registers")
	}
	if vca64.NormTime <= 0 {
		t.Error("VCA@64 has no time")
	}

	base256, _ := Cell(cells, ArchBaseline, 256)
	vca256, _ := Cell(cells, ArchVCAWindow, 256)
	ideal256, _ := Cell(cells, ArchIdealWindow, 256)

	// Figure 4 shapes: VCA beats the baseline at 256 registers and tracks
	// ideal closely (paper: within 1%; we allow 5% for the synthetic
	// suite).
	if vca256.NormTime >= base256.NormTime {
		t.Errorf("VCA@256 time %.3f not better than baseline %.3f",
			vca256.NormTime, base256.NormTime)
	}
	if vca256.NormTime > ideal256.NormTime*1.05 {
		t.Errorf("VCA@256 %.3f more than 5%% above ideal %.3f",
			vca256.NormTime, ideal256.NormTime)
	}
	// Baseline degrades as registers shrink.
	base128, _ := Cell(cells, ArchBaseline, 128)
	if base128.NormTime <= base256.NormTime {
		t.Errorf("baseline@128 %.3f should be slower than @256 %.3f",
			base128.NormTime, base256.NormTime)
	}
	// VCA's advantage grows with fewer registers (Figure 4 discussion).
	vca128, _ := Cell(cells, ArchVCAWindow, 128)
	gap256 := base256.NormTime - vca256.NormTime
	gap128 := base128.NormTime - vca128.NormTime
	if gap128 <= gap256 {
		t.Errorf("VCA advantage should grow as registers shrink: gap128=%.3f gap256=%.3f",
			gap128, gap256)
	}

	// Figure 5 shapes: VCA makes noticeably fewer data-cache accesses
	// than the baseline at 256 regs (paper: ~20% fewer); ideal fewer
	// still; conventional windows generate bursty trap traffic at small
	// sizes.
	if vca256.NormAccesses >= base256.NormAccesses {
		t.Errorf("VCA@256 accesses %.3f not below baseline %.3f",
			vca256.NormAccesses, base256.NormAccesses)
	}
	if ideal256.NormAccesses >= base256.NormAccesses {
		t.Error("ideal windows should reduce cache accesses")
	}
	conv128, okc := Cell(cells, ArchConvWindow, 128)
	if okc {
		vcaAcc128, _ := Cell(cells, ArchVCAWindow, 128)
		if conv128.NormAccesses <= vcaAcc128.NormAccesses {
			t.Errorf("conventional windows @128 (%.3f) should out-traffic VCA (%.3f)",
				conv128.NormAccesses, vcaAcc128.NormAccesses)
		}
	}

	for _, c := range cells {
		if c.Valid {
			t.Logf("%-16s regs=%3d time=%.3f accesses=%.3f", c.Arch.Label(), c.PhysRegs, c.NormTime, c.NormAccesses)
		} else {
			t.Logf("%-16s regs=%3d (cannot run)", c.Arch.Label(), c.PhysRegs)
		}
	}
}

func TestSinglePortSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	if raceDetectorOn {
		t.Skip("full-budget sweep takes tens of minutes under the race detector (see race_on_test.go)")
	}
	dual, err := RegWindowSweep(2, testStop)
	if err != nil {
		t.Fatal(err)
	}
	single, err := RegWindowSweep(1, testStop)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 6: single-port machines are never faster than dual-port, and
	// single-port VCA lands near the dual-port baseline at 256 registers
	// (paper: 0.5% slowdown; we allow 10%).
	b256d, _ := Cell(dual, ArchBaseline, 256)
	v256s, _ := Cell(single, ArchVCAWindow, 256)
	b256s, _ := Cell(single, ArchBaseline, 256)
	if b256s.NormTime < b256d.NormTime*0.999 {
		t.Errorf("single-port baseline (%.3f) faster than dual-port (%.3f)?",
			b256s.NormTime, b256d.NormTime)
	}
	if v256s.NormTime > b256d.NormTime*1.10 {
		t.Errorf("single-port VCA %.3f should approach dual-port baseline %.3f",
			v256s.NormTime, b256d.NormTime)
	}
	t.Logf("dual baseline=%.3f single baseline=%.3f single vca=%.3f",
		b256d.NormTime, b256s.NormTime, v256s.NormTime)
}

func TestWorkloadSelection(t *testing.T) {
	two, four, err := SelectSMTWorkloads(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 6 || len(four) != 5 {
		t.Fatalf("selected %d/%d workloads", len(two), len(four))
	}
	for _, w := range two {
		if len(w) != 2 || !distinct(w) {
			t.Errorf("bad 2T workload %v", names(w))
		}
	}
	for _, w := range four {
		if len(w) != 4 || !distinct(w) {
			t.Errorf("bad 4T workload %v", names(w))
		}
		t.Logf("4T workload: %v", names(w))
	}
}

func names(ws []workload.Benchmark) []string {
	var out []string
	for _, w := range ws {
		out = append(out, w.Name)
	}
	return out
}

func TestSMTSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	if raceDetectorOn {
		t.Skip("full-budget sweep takes tens of minutes under the race detector (see race_on_test.go)")
	}
	opts := SMTOptions{K2: 3, K4: 3, StopAfter: 50_000, Sizes: []int{128, 192, 320, 448}}
	cells, err := SMTSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Conventional SMT cannot run 2T at 128 regs or 4T at 256, VCA can.
	if _, ok := SMTCellFor(cells, "baseline 2T", 128); ok {
		t.Error("baseline 2T should not run at 128 registers")
	}
	if v, ok := SMTCellFor(cells, "vca 2T", 128); !ok || v.Speedup <= 0 {
		t.Error("vca 2T must run at 128 registers")
	}
	v4, ok := SMTCellFor(cells, "vca 4T", 192)
	if !ok {
		t.Fatal("vca 4T must run at 192 registers")
	}
	b4, ok := SMTCellFor(cells, "baseline 4T", 448)
	if !ok {
		t.Fatal("baseline 4T must run at 448")
	}
	// The headline claim (§4.2): VCA 4T at 192 registers achieves
	// performance comparable to the baseline with 448 (paper: 98.7%; we
	// require >= 85% on the synthetic suite).
	if v4.Speedup < 0.85*b4.Speedup {
		t.Errorf("vca 4T@192 speedup %.3f below 85%% of baseline 4T@448 %.3f",
			v4.Speedup, b4.Speedup)
	}
	// More threads help VCA: 4T speedup > 2T at large sizes.
	v2, _ := SMTCellFor(cells, "vca 2T", 448)
	v4448, _ := SMTCellFor(cells, "vca 4T", 448)
	if v4448.Speedup <= v2.Speedup*0.9 {
		t.Errorf("vca 4T@448 %.3f should not trail 2T %.3f", v4448.Speedup, v2.Speedup)
	}
	for _, c := range cells {
		if c.Valid {
			t.Logf("%-12s regs=%3d speedup=%.3f wacc=%.3f", c.Series, c.PhysRegs, c.Speedup, c.Accesses)
		}
	}
}

// TestParallelForStopsOnError checks that after a worker reports an
// error, parallelFor stops dispatching the remaining jobs rather than
// running the full matrix.
func TestParallelForStopsOnError(t *testing.T) {
	const n = 10_000
	var calls atomic.Int64
	err := parallelFor(n, func(i int) error {
		calls.Add(1)
		time.Sleep(100 * time.Microsecond)
		return errors.New("boom")
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if got := calls.Load(); got > n/2 {
		t.Fatalf("dispatched %d of %d jobs after the first error; dispatch should have stopped", got, n)
	}
}

// withCache installs a fresh result cache for the duration of a test.
// The experiments package state is global, so tests using it cannot run
// in parallel with each other — none of this file's tests call
// t.Parallel().
func withCache(t *testing.T) *simcache.Cache {
	t.Helper()
	c, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetCache(c)
	t.Cleanup(func() { SetCache(nil) })
	return c
}

// TestSweepRunTwiceMemoized is the run-twice acceptance demo at test
// scale: a second pass over an identical sweep matrix must reproduce
// the exact cells with zero re-simulated jobs, and the hit/miss
// counters must prove it. The matrix here is a small explicit one so
// the test stays cheap under -race; `make cache-ci` runs the same
// round trip over the full Figure 4 sweep at the command level.
func TestSweepRunTwiceMemoized(t *testing.T) {
	cache := withCache(t)
	benches := workload.CallFrequent()[:4]
	archs := []Arch{ArchBaseline, ArchVCAWindow}
	const stop = 5_000

	pass := func() []Metrics {
		cells := make([]Metrics, len(benches)*len(archs))
		err := parallelFor(len(cells), func(i int) error {
			m, err := RunSingle(benches[i%len(benches)], archs[i/len(benches)], 256, 2, stop)
			cells[i] = m
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}

	cold := pass()
	afterCold := cache.Stats()
	if want := uint64(len(cold)); afterCold.Misses != want || afterCold.Hits != 0 {
		t.Fatalf("cold pass stats %v, want %d misses", afterCold, want)
	}

	warm := pass()
	afterWarm := cache.Stats()
	if afterWarm.Misses != afterCold.Misses {
		t.Fatalf("warm pass re-simulated %d jobs; want 0 (stats %v)",
			afterWarm.Misses-afterCold.Misses, afterWarm)
	}
	if afterWarm.Hits != afterCold.Misses {
		t.Fatalf("warm pass hit %d of %d jobs (stats %v)", afterWarm.Hits, afterCold.Misses, afterWarm)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("memoized sweep differs from cold sweep:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// TestSweepResumesAfterInterrupt kills a sweep partway (a failing job
// aborts dispatch) and re-runs it: completed cells must come from the
// cache, not re-simulation.
func TestSweepResumesAfterInterrupt(t *testing.T) {
	cache := withCache(t)
	benches := workload.CallFrequent()[:6]
	const stop = 5_000

	run := func(interruptAt int) error {
		return parallelFor(len(benches), func(i int) error {
			if i == interruptAt {
				return errors.New("simulated interrupt")
			}
			met, err := RunSingle(benches[i], ArchVCAWindow, 128, 2, stop)
			if err == nil && !met.Valid {
				err = errors.New("invalid cell")
			}
			return err
		})
	}
	if err := run(3); err == nil {
		t.Fatal("interrupt did not surface")
	}
	interrupted := cache.Stats()
	if interrupted.Stores == 0 {
		t.Fatal("interrupted sweep stored nothing")
	}
	if err := run(-1); err != nil {
		t.Fatal(err)
	}
	final := cache.Stats()
	if final.Hits != interrupted.Stores {
		t.Errorf("resume re-simulated completed cells: %d hits, want %d", final.Hits, interrupted.Stores)
	}
	if final.Misses != uint64(len(benches)) {
		t.Errorf("total misses %d, want %d (each cell simulated exactly once)", final.Misses, len(benches))
	}
}
