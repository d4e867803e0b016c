package main

import (
	"math"
	"slices"
	"strings"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, the percentile is one or two unlucky requests,
// not a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of values
// and the number of samples strictly beyond it. values need not be
// sorted; it is not modified.
func percentile(values []float64, q float64) (v float64, beyond int) {
	if len(values) == 0 {
		return 0, 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s) - 1 - rank
}

// tailPercentile is percentile restricted to what may be reported:
// ok=false when fewer than minBeyond samples lie beyond the q-quantile.
func tailPercentile(values []float64, q float64) (v float64, ok bool) {
	v, beyond := percentile(values, q)
	return v, beyond >= minBeyond
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// counterLayers reduces summed simulator counters (one round's cells)
// to the simulated per-layer metrics. committed is the cells' total
// committed instruction count.
func counterLayers(counts map[string]uint64, committed uint64) map[string]float64 {
	out := map[string]float64{}
	if len(counts) == 0 || committed == 0 {
		return out
	}
	perK := func(name string) float64 { return float64(counts[name]) * 1000 / float64(committed) }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	var dl1, window uint64
	for name, v := range counts {
		cause, ok := strings.CutPrefix(name, "mem.dl1.accesses.")
		if !ok {
			continue
		}
		dl1 += v
		if cause == "spill_fill" || cause == "window_trap" {
			window += v
		}
	}
	out["core.cycles"] = float64(counts["core.cycles"])
	out["core.commit.uops"] = float64(counts["core.commit.uops"])
	out["core.commit.squashed"] = float64(counts["core.commit.squashed"])
	out["rename.vca.stalls"] = perK("rename.vca.stalls")
	out["rename.vca.phys_evicts"] = perK("rename.vca.phys_evicts")
	out["rename.vca.spills"] = perK("rename.vca.spills")
	out["rename.vca.fills"] = perK("rename.vca.fills")
	out["mem.dl1.accesses"] = float64(dl1)
	out["mem.dl1.spill_fill_share"] = ratio(window, dl1)
	out["branch.cond_mispredict_rate"] = ratio(counts["branch.cond_mispredicts"], counts["branch.cond_lookups"])
	return out
}
