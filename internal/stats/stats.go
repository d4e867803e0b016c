// Package stats implements the paper's measurement methodology (§3.1-3.2):
// execution time estimated as CPI times complete dynamic path length,
// normalized execution times, and the weighted speedup / weighted cache
// access metrics used for the SMT studies.
package stats

import "fmt"

// ExecTime estimates a benchmark's full execution time as the product of
// the detailed simulation's CPI and the complete run's dynamic instruction
// count (§3.1: "We estimate execution time as the product of the CPI from
// the detailed SimPoint simulation and the complete benchmark's dynamic
// instruction count").
func ExecTime(cpi float64, pathLen uint64) float64 {
	return cpi * float64(pathLen)
}

// AccessesTotal scales a per-instruction cache access rate to a complete
// run (§3.1: "Total cache accesses are calculated similarly").
func AccessesTotal(accessesPerInst float64, pathLen uint64) float64 {
	return accessesPerInst * float64(pathLen)
}

// Normalize divides each value by the reference, for "normalized to the
// baseline with 256 physical registers" plots.
func Normalize(values []float64, ref float64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v / ref
	}
	return out
}

// WeightedSpeedup computes the SMT speedup metric of §3.2: the sum over
// threads of single-thread execution time divided by the thread's
// execution time in the multithreaded run. Single-thread times come from
// the reference machine (baseline, 256 registers).
func WeightedSpeedup(singleTimes, smtTimes []float64) (float64, error) {
	if len(singleTimes) != len(smtTimes) {
		return 0, fmt.Errorf("stats: %d single times vs %d smt times", len(singleTimes), len(smtTimes))
	}
	var s float64
	for i := range smtTimes {
		if smtTimes[i] <= 0 {
			return 0, fmt.Errorf("stats: non-positive smt time %v", smtTimes[i])
		}
		s += singleTimes[i] / smtTimes[i]
	}
	return s, nil
}

// WeightedCacheAccesses computes the §4.3 cache metric: the sum over
// threads of the run's accesses-per-instruction relative to the thread's
// single-threaded accesses-per-instruction.
func WeightedCacheAccesses(singleAPI, smtAPI []float64) (float64, error) {
	if len(singleAPI) != len(smtAPI) {
		return 0, fmt.Errorf("stats: length mismatch")
	}
	var s float64
	for i := range smtAPI {
		if singleAPI[i] <= 0 {
			return 0, fmt.Errorf("stats: non-positive single-thread access rate")
		}
		s += smtAPI[i] / singleAPI[i]
	}
	return s, nil
}

// Mean returns the arithmetic mean.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
