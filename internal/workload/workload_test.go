package workload

import (
	"sync"
	"sync/atomic"
	"testing"

	"vca/internal/minic"
	"vca/internal/program"
)

func TestAllBenchmarksBuildAndRunBothABIs(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			flat, err := b.Profile(minic.ABIFlat)
			if err != nil {
				t.Fatal(err)
			}
			win, err := b.Profile(minic.ABIWindowed)
			if err != nil {
				t.Fatal(err)
			}
			if flat.Output == "" {
				t.Error("no output/checksum")
			}
			if flat.Output != win.Output {
				t.Errorf("ABI outputs differ: flat %q, windowed %q", flat.Output, win.Output)
			}
			t.Logf("insts flat=%d win=%d ratio=%.3f calls/kinst=%.1f loads+stores=%d",
				flat.Stats.Insts, win.Stats.Insts,
				float64(win.Stats.Insts)/float64(flat.Stats.Insts),
				1000*float64(flat.Stats.Calls)/float64(flat.Stats.Insts),
				flat.Stats.Loads+flat.Stats.Stores)
		})
	}
}

func TestPathLengthRatios(t *testing.T) {
	// Table 2's ratios span 0.82-0.99 with average 0.92. Our synthetic
	// suite must land in the same regime: every ratio < 1 and the average
	// near 0.9.
	var sum float64
	n := 0
	for _, b := range All() {
		ratio, err := b.PathLengthRatio()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if ratio >= 1.0 || ratio < 0.6 {
			t.Errorf("%s: path-length ratio %.3f outside (0.6, 1.0)", b.Name, ratio)
		}
		t.Logf("%-16s %.3f", b.Name, ratio)
		sum += ratio
		n++
	}
	avg := sum / float64(n)
	if avg < 0.82 || avg > 0.97 {
		t.Errorf("average ratio %.3f outside [0.82, 0.97] (paper: 0.92)", avg)
	}
	t.Logf("average          %.3f (paper: 0.92)", avg)
}

func TestCallFrequencySelection(t *testing.T) {
	// The window experiments require one call per <= 500 instructions
	// (§3.1) for benchmarks marked CallFrequent.
	for _, b := range All() {
		p, err := b.Profile(minic.ABIFlat)
		if err != nil {
			t.Fatal(err)
		}
		perCall := float64(p.Stats.Insts) / float64(p.Stats.Calls+1)
		if b.CallFrequent && perCall > 500 {
			t.Errorf("%s marked call-frequent but calls every %.0f instructions", b.Name, perCall)
		}
		if !b.CallFrequent && perCall <= 500 {
			t.Errorf("%s not marked call-frequent but calls every %.0f instructions", b.Name, perCall)
		}
	}
}

func TestBenchmarkSizes(t *testing.T) {
	// Benchmarks must be big enough to exercise the pipeline and caches
	// but small enough that the full experiment matrix stays tractable.
	for _, b := range All() {
		p, err := b.Profile(minic.ABIFlat)
		if err != nil {
			t.Fatal(err)
		}
		if p.Stats.Insts < 30_000 {
			t.Errorf("%s: only %d instructions — too small to measure", b.Name, p.Stats.Insts)
		}
		if p.Stats.Insts > 3_000_000 {
			t.Errorf("%s: %d instructions — too large for the experiment matrix", b.Name, p.Stats.Insts)
		}
	}
}

func TestSuiteDiversity(t *testing.T) {
	// The clustering methodology needs behavioral spread: FP share, call
	// density, and memory density must differ across the suite.
	var minCallRate, maxCallRate = 1e9, 0.0
	fpCount := 0
	for _, b := range All() {
		p, err := b.Profile(minic.ABIFlat)
		if err != nil {
			t.Fatal(err)
		}
		rate := float64(p.Stats.Calls) / float64(p.Stats.Insts)
		if rate < minCallRate {
			minCallRate = rate
		}
		if rate > maxCallRate {
			maxCallRate = rate
		}
		if b.FP {
			fpCount++
			if p.Stats.FPOps == 0 {
				t.Errorf("%s marked FP but executes no FP ops", b.Name)
			}
		}
	}
	if fpCount < 4 {
		t.Errorf("suite has %d FP benchmarks, want >= 4", fpCount)
	}
	if maxCallRate < 4*minCallRate {
		t.Errorf("call-rate spread too small: %.4f .. %.4f", minCallRate, maxCallRate)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("crafty"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
	if len(CallFrequent()) == 0 {
		t.Error("no call-frequent benchmarks")
	}
}

// TestMemoOneComputationPerKey pins the memo's contract without timing:
// concurrent callers of one key share one computation and one result,
// and a computation of one key does not hold up another key's (the
// computation of "b" starts while that of "a" is under way, and "a"
// cannot return until it has).
func TestMemoOneComputationPerKey(t *testing.T) {
	var c memo[*int]
	var calls atomic.Int32
	aStarted, bStarted := make(chan struct{}), make(chan struct{})
	results := make([]*int, 8)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], _ = c.get("a", func() (*int, error) {
				calls.Add(1)
				close(aStarted)
				<-bStarted
				return new(int), nil
			})
		}()
	}
	<-aStarted
	if _, err := c.get("b", func() (*int, error) { close(bStarted); return new(int), nil }); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("key computed %d times, want 1", n)
	}
	for g, r := range results {
		if r == nil || r != results[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", g, r, results[0])
		}
	}
}

// TestConcurrentProfileAndBuild runs many concurrent callers of one
// benchmark's Build and Profile (run it under -race): every caller must
// get the same *Program and the same *Profile.
func TestConcurrentProfileAndBuild(t *testing.T) {
	b, err := ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	progs := make([]*program.Program, callers)
	profs := make([]*Profile, callers)
	errs := make([]error, 2*callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			progs[g], errs[g] = b.Build(minic.ABIWindowed)
		}()
		go func() {
			defer wg.Done()
			profs[g], errs[callers+g] = b.Profile(minic.ABIWindowed)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for g := range progs {
		if progs[g] != progs[0] || profs[g] != profs[0] {
			t.Fatalf("caller %d got program %p profile %p, caller 0 got %p %p",
				g, progs[g], profs[g], progs[0], profs[0])
		}
	}
}
