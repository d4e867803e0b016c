package main

import (
	"fmt"
	"math/rand"
	"strings"

	"vca/internal/experiments"
	"vca/internal/minic"
	"vca/internal/server"
	"vca/internal/workload"
)

// archByName mirrors the service's public arch names (server.ArchNames)
// so the generator can classify cells before submitting them.
var archByName = map[string]experiments.Arch{
	"baseline":       experiments.ArchBaseline,
	"conv-windowed":  experiments.ArchConvWindow,
	"ideal-windowed": experiments.ArchIdealWindow,
	"vca-flat":       experiments.ArchVCAFlat,
	"vca-windowed":   experiments.ArchVCAWindow,
}

// sweepShape fixes the properties a service sweep's cost depends on;
// the seed picks everything else.
type sweepShape struct {
	archs, regs int
	// valid is the exact number of cells that simulate; the rest are
	// No-Baseline cells the service answers without simulating.
	valid int
	// pressure is the exact number of valid cells on a windowed machine
	// at ≤128 registers, which simulate tens of times slower than the
	// rest.
	pressure int
	// idealPressure is the exact number of those on ideal-windowed,
	// whose every stalled allocation scans a 131,072-entry rename
	// table: tens of times slower again than the other pressure cells.
	idealPressure int
	// stopLo and stopSpan bound the seeded stop_after: [lo, lo+span).
	stopLo, stopSpan uint64
}

// genSweep draws a sweep of the given shape over the given benchmarks:
// its archs, register sizes and stop_after. Draws whose cell mix misses
// the shape are redrawn, so every seed asks for the same amount of
// simulation and only the choice of cells varies.
func genSweep(rng *rand.Rand, sh sweepShape, benches []string) (server.SweepRequest, error) {
	archs := server.ArchNames()
	for attempt := 0; attempt < 10_000; attempt++ {
		req := server.SweepRequest{
			Benchmarks: benches,
			StopAfter:  sh.stopLo + uint64(rng.Int63n(int64(sh.stopSpan))),
		}
		for _, i := range rng.Perm(len(archs))[:sh.archs] {
			req.Archs = append(req.Archs, archs[i])
		}
		for _, i := range rng.Perm(len(experiments.RegWindowSizes))[:sh.regs] {
			req.PhysRegs = append(req.PhysRegs, experiments.RegWindowSizes[i])
		}
		if m := cellMix(req); m.valid == sh.valid && m.pressure == sh.pressure && m.idealPressure == sh.idealPressure {
			return req, nil
		}
	}
	return server.SweepRequest{}, fmt.Errorf("no sweep of shape %+v found", sh)
}

// benchGroups deals a seeded permutation of the whole suite into
// groups of size n (a final short group is dropped).
func benchGroups(rng *rand.Rand, n int) [][]string {
	all := workload.All()
	var groups [][]string
	var g []string
	for _, i := range rng.Perm(len(all)) {
		g = append(g, all[i].Name)
		if len(g) == n {
			groups = append(groups, g)
			g = nil
		}
	}
	return groups
}

// mix counts a sweep's cells by kind.
type mix struct{ cells, valid, noBaseline, pressure, idealPressure int }

func cellMix(req server.SweepRequest) mix {
	var m mix
	for _, a := range req.Archs {
		arch := archByName[a]
		for _, r := range req.PhysRegs {
			for _, b := range req.Benchmarks {
				m.cells++
				if _, ok := arch.Config(len(strings.Split(b, ",")), r, 2); !ok {
					m.noBaseline++
					continue
				}
				m.valid++
				if arch.ABI() == minic.ABIWindowed && r <= 128 {
					m.pressure++
					if arch == experiments.ArchIdealWindow {
						m.idealPressure++
					}
				}
			}
		}
	}
	return m
}

func describeSweep(req server.SweepRequest) string {
	return fmt.Sprintf("benchmarks=%s archs=%s phys_regs=%v stop_after=%d",
		strings.Join(req.Benchmarks, ","), strings.Join(req.Archs, ","), req.PhysRegs, req.StopAfter)
}
