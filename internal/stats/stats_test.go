package stats

import (
	"math"
	"testing"
)

func TestExecTimeAndNormalize(t *testing.T) {
	if ExecTime(2.0, 1000) != 2000 {
		t.Error("ExecTime")
	}
	if AccessesTotal(0.25, 1000) != 250 {
		t.Error("AccessesTotal")
	}
	n := Normalize([]float64{2, 4, 8}, 4)
	if n[0] != 0.5 || n[1] != 1 || n[2] != 2 {
		t.Errorf("Normalize = %v", n)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	// Two threads each running at half their single-thread speed: the
	// machine does one thread's worth of work -> speedup 1.0.
	s, err := WeightedSpeedup([]float64{100, 200}, []float64{200, 400})
	if err != nil || math.Abs(s-1.0) > 1e-12 {
		t.Errorf("speedup %v err %v", s, err)
	}
	// Perfect scaling: both at single-thread speed -> 2.0.
	s, _ = WeightedSpeedup([]float64{100, 200}, []float64{100, 200})
	if math.Abs(s-2.0) > 1e-12 {
		t.Errorf("perfect speedup %v", s)
	}
	if _, err := WeightedSpeedup([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := WeightedSpeedup([]float64{1}, []float64{0}); err == nil {
		t.Error("zero time should error")
	}
}

func TestWeightedCacheAccesses(t *testing.T) {
	// Each thread makes the same accesses/inst as alone -> sum = n.
	w, err := WeightedCacheAccesses([]float64{0.3, 0.4}, []float64{0.3, 0.4})
	if err != nil || math.Abs(w-2.0) > 1e-12 {
		t.Errorf("weighted accesses %v err %v", w, err)
	}
	w, _ = WeightedCacheAccesses([]float64{0.2}, []float64{0.3})
	if math.Abs(w-1.5) > 1e-12 {
		t.Errorf("inflated accesses %v", w)
	}
}

func TestMeans(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean")
	}
	if Mean(nil) != 0 {
		t.Error("empty inputs")
	}
}
