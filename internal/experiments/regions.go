package experiments

import (
	"fmt"

	"vca/internal/core"
	"vca/internal/emu"
	"vca/internal/program"
	"vca/internal/simcache"
)

// Parallel-region simulation: the detailed run of one program is split
// into K consecutive regions of RegionLen committed instructions. A
// functional fast-forward walk (emu.FastRun, tens of MIPS) manufactures
// the architectural checkpoint at each region boundary; each region is
// then simulated on the detailed core independently — region i starts by
// transplanting boundary checkpoint i (core.InjectCheckpoint) and stops
// exactly RegionLen commits later (core.Config.StopExact) — so the K
// detailed simulations, by far the dominant cost, run concurrently on
// the shared job runner.
//
// Stitching sums the per-region counter maps, cycles, and committed
// counts and concatenates the per-region program output. Architectural
// quantities stitch exactly: the regions partition the committed
// instruction stream, so committed counts, output, and exit status are
// identical to a continuous run by construction (the audit below proves
// it). Microarchitectural quantities (cycles, cache misses, predictor
// traffic) carry a per-region cold-start: every region after the first
// begins with cold caches and predictors the continuous run had warm, so
// the stitched cycle count is an upper bound that tightens as RegionLen
// grows. EXPERIMENTS.md quantifies the effect.
//
// Determinism contract: region jobs are independent and deterministic,
// so the stitched result is bit-identical whatever the worker count.
// TestRegionStitchedGoldenMatrix pins parallel-vs-sequential identity
// across the 45-cell golden matrix; Audit mode additionally proves, per
// boundary, that the detailed core's extracted end-of-region state is
// content-address-identical to the functional walk's checkpoint.

// RegionOptions configures one parallel-region run.
type RegionOptions struct {
	// Regions is K, the maximum number of regions (≥ 1). The program
	// exiting during the functional walk truncates the plan.
	Regions int
	// RegionLen is the committed-instruction length of each region.
	RegionLen uint64
	// Jobs is the worker count for the detailed region simulations
	// (0 = GOMAXPROCS; 1 = strictly sequential, the identity-gate
	// reference).
	Jobs int
	// NoCache bypasses the result/checkpoint cache even when one is
	// installed, forcing every region to simulate (identity gates must
	// compare two real simulations, not a simulation against its own
	// cached copy).
	NoCache bool
	// Audit runs every region with co-simulation and the invariant
	// checker and cross-checks each region's extracted end state against
	// the functional walk's checkpoint for the same boundary (the region-
	// level state-transplant audit). Implies NoCache.
	Audit bool
}

// Region is one stitched segment of a parallel-region run.
type Region struct {
	Index      int
	StartInsts uint64 // absolute committed-instruction position of the region start
	StartAddr  string // content address of the starting checkpoint ("" = architectural reset)
	Result     *core.Result
	Counters   map[string]uint64
	CacheHit   bool
}

// RegionResult is the stitched outcome of a parallel-region run.
type RegionResult struct {
	Regions []Region
	// Cycles is the summed per-region cycle count (upper bound on the
	// continuous run's cycles; see the package comment on cold-start).
	Cycles uint64
	// Committed is the total committed instructions across regions.
	Committed uint64
	// Output is the concatenated program output, identical to a
	// continuous run's.
	Output   string
	Exited   bool
	ExitCode int64
	// Counters is the summed per-region counter map.
	Counters map[string]uint64
}

// regionBoundary is one region start produced by the functional walk.
type regionBoundary struct {
	startInsts uint64
	ck         *emu.Checkpoint // nil for region 0 (architectural reset)
}

// planRegions walks the program functionally and returns the region
// boundaries, ending early if the program exits. Boundary checkpoints
// are content-addressed into the installed cache (unless disabled) so a
// later sweep over the same program reuses the walk.
func planRegions(prog *program.Program, windowed bool, opts RegionOptions, c *simcache.Cache) ([]regionBoundary, error) {
	bounds := []regionBoundary{{startInsts: 0}}
	progHash := prog.Digest()
	fm := emu.New(prog, emu.Config{Windowed: windowed})
	pos := uint64(0)
	for i := 1; i < opts.Regions; i++ {
		target := uint64(i) * opts.RegionLen
		key := simcache.CheckpointKey(progHash, windowed, target)
		if ck, ok := c.GetCheckpoint(key); ok {
			if err := fm.RestoreCheckpoint(ck); err != nil {
				return nil, fmt.Errorf("experiments: cached boundary %d: %w", target, err)
			}
			pos = target
			bounds = append(bounds, regionBoundary{startInsts: target, ck: ck})
			continue
		}
		executed, err := fm.FastRun(target - pos)
		if err != nil {
			return nil, fmt.Errorf("experiments: fast-forward to %d: %w", target, err)
		}
		pos += executed
		if pos < target {
			break // program exits inside the previous region; plan truncated
		}
		if exited, _ := fm.Exited(); exited {
			break // exit lands exactly on the boundary: nothing left to simulate
		}
		ck := fm.Checkpoint()
		if err := c.PutCheckpoint(key, ck); err != nil {
			return nil, err
		}
		bounds = append(bounds, regionBoundary{startInsts: target, ck: ck})
	}
	return bounds, nil
}

// RunRegions simulates one program as Regions independent detailed
// segments and stitches the results. cfg's StopAfter/StopExact are
// overridden per region.
func RunRegions(cfg core.Config, prog *program.Program, windowed bool, opts RegionOptions) (*RegionResult, error) {
	if opts.Regions < 1 {
		return nil, fmt.Errorf("experiments: Regions must be >= 1 (got %d)", opts.Regions)
	}
	if opts.RegionLen == 0 {
		return nil, fmt.Errorf("experiments: RegionLen must be > 0")
	}
	c := cache
	if opts.NoCache || opts.Audit {
		c = nil
	}

	bounds, err := planRegions(prog, windowed, opts, c)
	if err != nil {
		return nil, err
	}

	cfg.StopAfter = opts.RegionLen
	cfg.StopExact = true
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 34
	}
	if opts.Audit {
		cfg.CoSim = true
		cfg.Check = true
	}

	regions := make([]Region, len(bounds))
	r := simcache.Runner{Jobs: opts.Jobs}
	err = r.Run(len(bounds), func(i int) error {
		b := bounds[i]
		reg := Region{Index: i, StartInsts: b.startInsts}
		if b.ck != nil {
			addr, err := b.ck.ContentAddress()
			if err != nil {
				return err
			}
			reg.StartAddr = addr
		}
		var next *emu.Checkpoint // functional image of this region's end boundary, when known
		if i+1 < len(bounds) {
			next = bounds[i+1].ck
		}
		if opts.Audit {
			res, counters, err := runRegionAudited(cfg, prog, windowed, b.ck, next)
			if err != nil {
				return err
			}
			reg.Result, reg.Counters = res, counters
		} else {
			var cks []*emu.Checkpoint
			if b.ck != nil {
				cks = []*emu.Checkpoint{b.ck}
			}
			res, counters, hit, err := c.RunMachineFrom(cfg, []*program.Program{prog}, windowed, cks)
			if err != nil {
				return err
			}
			reg.Result, reg.Counters, reg.CacheHit = res, counters, hit
		}
		regions[i] = reg
		return nil
	})
	if err != nil {
		return nil, err
	}
	return stitchRegions(regions)
}

// runRegionAudited simulates one region with co-simulation and, when the
// functional walk knows this region's end boundary, proves the detailed
// core reached exactly that architectural state.
func runRegionAudited(cfg core.Config, prog *program.Program, windowed bool, start, end *emu.Checkpoint) (*core.Result, map[string]uint64, error) {
	m, err := core.New(cfg, []*program.Program{prog}, windowed)
	if err != nil {
		return nil, nil, err
	}
	if start != nil {
		if err := m.InjectCheckpoint(0, start); err != nil {
			return nil, nil, err
		}
	}
	res, err := m.Run()
	if err != nil {
		return nil, nil, err
	}
	if end != nil {
		got, err := m.ExtractCheckpoint(0)
		if err != nil {
			return nil, nil, err
		}
		gotAddr, err := got.ContentAddress()
		if err != nil {
			return nil, nil, err
		}
		wantAddr, err := end.ContentAddress()
		if err != nil {
			return nil, nil, err
		}
		if gotAddr != wantAddr {
			return nil, nil, fmt.Errorf("experiments: region audit: detailed end state %.12s != functional boundary %.12s at inst %d",
				gotAddr, wantAddr, end.Insts)
		}
	}
	return res, res.Metrics.CounterMap(), nil
}

// stitchRegions reduces the per-region results to the stitched totals.
func stitchRegions(regions []Region) (*RegionResult, error) {
	out := &RegionResult{Regions: regions, Counters: map[string]uint64{}}
	for i, reg := range regions {
		res := reg.Result
		if res == nil {
			return nil, fmt.Errorf("experiments: region %d has no result", i)
		}
		if len(res.Threads) != 1 {
			return nil, fmt.Errorf("experiments: region stitching is single-threaded (region %d has %d threads)", i, len(res.Threads))
		}
		t := res.Threads[0]
		out.Cycles += res.Cycles
		out.Committed += t.Committed
		out.Output += t.Output
		if t.Done {
			if i != len(regions)-1 {
				return nil, fmt.Errorf("experiments: region %d exited but %d regions follow", i, len(regions)-1-i)
			}
			out.Exited, out.ExitCode = true, t.ExitCode
		}
		for k, v := range reg.Counters {
			out.Counters[k] += v
		}
	}
	return out, nil
}
