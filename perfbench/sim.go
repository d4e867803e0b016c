package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vca"
	"vca/internal/core"
	"vca/internal/experiments"
	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/server"
	"vca/internal/stats"
	"vca/internal/workload"
)

const (
	// regwinBudget is the Figure 4 sweep's per-cell commit budget. It is
	// below the 10k the paper-scale run uses so a round fits a few times
	// into a run; register pressure already dominates at this depth.
	regwinBudget = 2_000
	// table1Budget and table1FastForward shape a table1-core cell: each
	// thread runs table1FastForward instructions functionally, then
	// table1Budget in detail. Every benchmark is longer than the sum.
	table1Budget      = 10_000
	table1FastForward = 200_000
)

// simCell is one simulation of a simulator workload.
type simCell struct {
	name    string
	arch    experiments.Arch
	regs    int
	benches []workload.Benchmark
	// pressure marks a windowed machine at ≤128 registers: the cells
	// whose host time goes to the rename substrate's eviction path.
	pressure bool
}

// simBench runs a list of cells per round on simClients closed-loop
// clients.
type simBench struct {
	name   string
	budget uint64
	cells  []simCell
	refs   *refFile
	env    env
	run    simFunc

	rounds int
	first  []cellRun // per cell, from round 0: refs and the Figure 4 reduction

	mu  sync.Mutex
	acc simAccum
}

// simFunc simulates one cell with co-simulation on or off.
type simFunc func(c simCell, track, parent int, rec *recorder, cosim bool) (cellRun, error)

// cellRun is one simulated cell; a nil res is a No-Baseline cell.
type cellRun struct {
	res      *core.Result
	counters map[string]uint64
	run      time.Duration // time in the detailed run call
}

// detached is r with a copy of its result that drops the counter
// registry, which holds the whole machine, so keeping round 0's results
// does not keep every simulated machine of the round alive.
func (r cellRun) detached() cellRun {
	if r.res == nil {
		return r
	}
	res := *r.res
	res.Metrics = nil
	r.res = &res
	return r
}

func (r cellRun) committed() uint64 {
	var n uint64
	for _, t := range r.res.Threads {
		n += t.Committed
	}
	return n
}

// simAccum totals the traced rounds' host time and simulated work.
type simAccum struct {
	run, pressure     time.Duration
	committed, cycles uint64
	counted           bool
	counts            map[string]uint64 // summed counters of one traced round
	countsCommitted   uint64
}

func archName(a experiments.Arch) string {
	for _, name := range server.ArchNames() {
		if archByName[name] == a {
			return name
		}
	}
	return a.String()
}

func newCell(a experiments.Arch, regs int, bs ...workload.Benchmark) simCell {
	var names []string
	for _, b := range bs {
		names = append(names, b.Name)
	}
	return simCell{
		name:     fmt.Sprintf("%s/%d/%s", archName(a), regs, strings.Join(names, ",")),
		arch:     a,
		regs:     regs,
		benches:  bs,
		pressure: a.ABI() == minic.ABIWindowed && regs <= 128,
	}
}

// buildAll builds every benchmark under both ABIs, and profiles them
// when asked, each call in a span.
func buildAll(e env, benches []workload.Benchmark, profile bool) error {
	for _, b := range benches {
		for _, abi := range []minic.ABI{minic.ABIFlat, minic.ABIWindowed} {
			sp := e.rec.begin(0, 0, "workload.Build")
			_, err := b.Build(abi)
			sp.end()
			if err != nil {
				return err
			}
			if !profile {
				continue
			}
			sp = e.rec.begin(0, 0, "emu.Profile")
			_, err = b.Profile(abi)
			sp.end()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func setupRegwin(e env) (bench, error) {
	benches := workload.CallFrequent()
	if err := buildAll(e, benches, true); err != nil {
		return nil, err
	}
	var pressure, roomy []simCell
	for _, bm := range benches {
		ref := newCell(experiments.ArchBaseline, 256, bm)
		ref.name = "ref:" + ref.name
		roomy = append(roomy, ref)
	}
	for _, a := range experiments.RegWindowArchs {
		for _, r := range experiments.RegWindowSizes {
			for _, bm := range benches {
				c := newCell(a, r, bm)
				if c.pressure {
					pressure = append(pressure, c)
				} else {
					roomy = append(roomy, c)
				}
			}
		}
	}
	// The long pressure cells go first, as in the sweep's own order of
	// cost, so a traced round's spans show them together.
	cells := append(pressure, roomy...)
	return &simBench{name: "regwin-sweep", budget: regwinBudget, cells: cells, env: e, run: runRegwinCell}, nil
}

// runRegwinCell is experiments.RunSingle's simulation path — Arch.Config,
// Benchmark.Build, core.New, Machine.Run with caching off — with each
// call in its own span and the full result kept for the digest.
func runRegwinCell(c simCell, track, parent int, rec *recorder, cosim bool) (cellRun, error) {
	cfg, ok := c.arch.Config(len(c.benches), c.regs, 2)
	if !ok {
		return cellRun{}, nil
	}
	progs, err := buildPrograms(c, track, parent, rec)
	if err != nil {
		return cellRun{}, err
	}
	cfg.StopAfter = regwinBudget
	cfg.MaxCycles = 1 << 34
	cfg.CoSim = cosim
	sp := rec.begin(track, parent, "core.New")
	m, err := core.New(cfg, progs, c.arch.ABI() == minic.ABIWindowed)
	sp.end()
	if err != nil {
		return cellRun{}, err
	}
	sp = rec.begin(track, parent, "core.Run")
	t0 := time.Now()
	res, err := m.Run()
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return cellRun{}, err
	}
	return cellRun{res: res, counters: res.Metrics.CounterMap(), run: d}, nil
}

func buildPrograms(c simCell, track, parent int, rec *recorder) ([]*program.Program, error) {
	var progs []*program.Program
	for _, bm := range c.benches {
		sp := rec.begin(track, parent, "workload.Build")
		p, err := bm.Build(c.arch.ABI())
		sp.end()
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// table1Pairs are the 2-thread SMT cells of table1-core.
var table1Pairs = [][2]string{{"gcc_expr", "mesa"}, {"crafty", "equake"}, {"twolf", "ammp"}, {"parser", "wupwise"}}

var table1Archs = []experiments.Arch{experiments.ArchBaseline, experiments.ArchConvWindow, experiments.ArchVCAFlat, experiments.ArchVCAWindow}

func setupTable1(e env) (bench, error) {
	benches := workload.All()
	if err := buildAll(e, benches, false); err != nil {
		return nil, err
	}
	b := &simBench{name: "table1-core", budget: table1Budget, env: e, run: runTable1Cell}
	for _, a := range table1Archs {
		for _, bm := range benches {
			b.cells = append(b.cells, newCell(a, 256, bm))
		}
		// A conventional windowed machine cannot hold two threads'
		// windows in 256 registers, so it runs no SMT cells.
		if a == experiments.ArchConvWindow {
			continue
		}
		for _, p := range table1Pairs {
			x, err := workload.ByName(p[0])
			if err != nil {
				return nil, err
			}
			y, err := workload.ByName(p[1])
			if err != nil {
				return nil, err
			}
			b.cells = append(b.cells, newCell(a, 256, x, y))
		}
	}
	return b, nil
}

var vcaArch = map[experiments.Arch]vca.Arch{
	experiments.ArchBaseline:   vca.Baseline,
	experiments.ArchConvWindow: vca.ConvWindowed,
	experiments.ArchVCAFlat:    vca.VCAFlat,
	experiments.ArchVCAWindow:  vca.VCAWindowed,
}

// runTable1Cell is the shape of a vcasim run: fast-forward every thread
// on the functional engine, then simulate in detail from the
// checkpoints through the vca facade.
func runTable1Cell(c simCell, track, parent int, rec *recorder, cosim bool) (cellRun, error) {
	progs, err := buildPrograms(c, track, parent, rec)
	if err != nil {
		return cellRun{}, err
	}
	arch := vcaArch[c.arch]
	var cks []*vca.Checkpoint
	for _, p := range progs {
		sp := rec.begin(track, parent, "emu.FastForward")
		ck, err := vca.FastForward(p, arch.Windowed(), table1FastForward)
		sp.end()
		if err != nil {
			return cellRun{}, err
		}
		cks = append(cks, ck)
	}
	spec := vca.MachineSpec{Arch: arch, PhysRegs: c.regs, StopAfter: table1Budget, Restore: cks, DisableCoSim: !cosim}
	sp := rec.begin(track, parent, "vca.Run")
	t0 := time.Now()
	res, err := vca.Run(spec, progs...)
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return cellRun{}, err
	}
	return cellRun{res: res.Result, counters: res.Metrics.CounterMap(), run: d}, nil
}

func (b *simBench) refPath() string { return filepath.Join(b.env.refs, b.name+".json") }

func (b *simBench) prepare() error {
	rf, err := loadRefs(b.refPath())
	if err != nil {
		return err
	}
	if rf.Budget != b.budget {
		return fmt.Errorf("%s was made at budget %d, not %d", b.refPath(), rf.Budget, b.budget)
	}
	b.refs = rf
	if b.name == "regwin-sweep" {
		return b.crossCheckRunSingle()
	}
	return nil
}

// crossCheckRunSingle pins runRegwinCell to experiments.RunSingle on
// one cell, so the benchmark cannot drift from the path it stands for.
func (b *simBench) crossCheckRunSingle() error {
	c := b.cells[0]
	met, err := experiments.RunSingle(c.benches[0], c.arch, c.regs, 2, regwinBudget)
	if err != nil {
		return err
	}
	r, err := runRegwinCell(c, 0, 0, nil, true)
	if err != nil {
		return err
	}
	if r.res.Cycles != met.Cycles || r.committed() != met.Committed {
		return fmt.Errorf("%s: benchmark path gives %d cycles/%d committed, RunSingle %d/%d",
			c.name, r.res.Cycles, r.committed(), met.Cycles, met.Committed)
	}
	return nil
}

func (b *simBench) round(rec *recorder) (roundResult, error) {
	first := b.rounds == 0
	if first {
		b.first = make([]cellRun, len(b.cells))
	}
	b.rounds++
	countRound := rec != nil && !b.acc.counted
	if countRound {
		b.acc.counted = true
		b.acc.counts = map[string]uint64{}
	}
	var next atomic.Int64
	start := time.Now()
	reqs := closedLoop(simClients, func(track int) []request {
		var out []request
		for {
			i := int(next.Add(1) - 1)
			if i >= len(b.cells) {
				return out
			}
			out = append(out, b.runCell(i, track, rec, first, countRound))
		}
	})
	return roundResult{wall: time.Since(start), reqs: reqs}, nil
}

func (b *simBench) runCell(i, track int, rec *recorder, first, countRound bool) request {
	c := b.cells[i]
	root := rec.begin(track, 0, "bench.cell")
	defer root.end()
	t0 := time.Now()
	r, err := b.run(c, track, root.id(), rec, true)
	lat := time.Since(t0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.name, err)
		return request{cells: 1, failed: 1}
	}
	if r.res == nil {
		return request{cells: 1}
	}
	q := request{latency: lat, cells: 1, sample: true, committed: r.committed()}
	if b.refs != nil && !b.refs.matches(c.name, cellDigest(r.res, r.counters)) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: result differs from its reference\n", c.name)
		q.failed = 1
	}
	if first {
		b.first[i] = r.detached()
	}
	if rec != nil {
		b.account(c, r, countRound)
	}
	return q
}

func (b *simBench) account(c simCell, r cellRun, countRound bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.acc.run += r.run
	if c.pressure {
		b.acc.pressure += r.run
	}
	b.acc.committed += r.committed()
	b.acc.cycles += r.res.Cycles
	if countRound {
		for k, v := range r.counters {
			b.acc.counts[k] += v
		}
		b.acc.countsCommitted += r.committed()
	}
}

// closedLoop runs fn on each of n clients and gathers what they return.
func closedLoop(n int, fn func(track int) []request) []request {
	var wg sync.WaitGroup
	out := make([][]request, n)
	for t := 0; t < n; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			out[t] = fn(t + 1)
		}(t)
	}
	wg.Wait()
	var all []request
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

func (b *simBench) finish() (int, error) { return 0, nil }

func (b *simBench) layers(spans []span, rounds int) (map[string]float64, error) {
	out := counterLayers(b.acc.counts, b.acc.countsCommitted)
	build, _ := sumDur(spans, "workload.Build")
	profile, _ := sumDur(spans, "emu.Profile")
	out["workload.build_ms"] = ms(build)
	out["emu.profile_ms"] = ms(profile)
	if ff, n := sumDur(spans, "emu.FastForward"); n > 0 {
		out["emu.fastforward_ms"] = ms(ff) / float64(n)
		out["emu.fastforward_mips"] = float64(n) * table1FastForward / ff.Seconds() / 1e6
	}
	if nw, n := sumDur(spans, "core.New"); n > 0 {
		out["core.new_ms"] = ms(nw) / float64(n)
	}
	r := float64(max(rounds, 1))
	out["core.run_s"] = b.acc.run.Seconds() / r
	out["core.run_s.pressure"] = b.acc.pressure.Seconds() / r
	out["core.run_s.roomy"] = (b.acc.run - b.acc.pressure).Seconds() / r
	if b.acc.committed > 0 {
		out["core.ns_per_inst"] = float64(b.acc.run.Nanoseconds()) / float64(b.acc.committed)
		out["core.ns_per_cycle"] = float64(b.acc.run.Nanoseconds()) / float64(b.acc.cycles)
	}
	share, err := b.cosimShare()
	if err != nil {
		return nil, err
	}
	out["cosim.share"] = share
	return out, nil
}

// cosimStride picks the cells the co-simulation share is measured on:
// every cosimStride-th cell, a spread across archs and benchmarks.
const cosimStride = 6

// cosimShare is 1 − t(co-simulation off)/t(co-simulation on), timing
// the detailed run of the same cells both ways, one at a time.
func (b *simBench) cosimShare() (float64, error) {
	var on, off time.Duration
	for k := 0; k*cosimStride < len(b.cells); k++ {
		c := b.cells[k*cosimStride]
		// Alternate which side runs first, so warm-up favours neither.
		for _, cosim := range []bool{k%2 == 0, k%2 != 0} {
			r, err := b.run(c, 0, 0, nil, cosim)
			if err != nil {
				return 0, err
			}
			if r.res == nil {
				break
			}
			if cosim {
				on += r.run
			} else {
				off += r.run
			}
		}
	}
	if on == 0 {
		return 0, nil
	}
	return 1 - float64(off)/float64(on), nil
}

func (b *simBench) config() map[string]any {
	var noBaseline, pressure, dups int
	seen := map[string]bool{}
	for _, c := range b.cells {
		if _, ok := c.arch.Config(len(c.benches), c.regs, 2); !ok {
			noBaseline++
		} else if c.pressure {
			pressure++
		}
		// The dual-port references repeat the baseline/256 cells.
		key := strings.TrimPrefix(c.name, "ref:")
		if seen[key] {
			dups++
		}
		seen[key] = true
	}
	n := float64(len(b.cells))
	cfg := map[string]any{
		"budget":            b.budget,
		"cells":             len(b.cells),
		"cosim":             true,
		"valid_share":       1 - float64(noBaseline)/n,
		"no_baseline_share": float64(noBaseline) / n,
		"pressure_share":    float64(pressure) / n,
		"duplicate_share":   float64(dups) / n,
	}
	if b.name == "table1-core" {
		cfg["fast_forward"] = table1FastForward
		cfg["phys_regs"] = 256
	} else if fig, err := b.figure4(); err == nil {
		cfg["figure4_norm_time"] = fig
	}
	return cfg
}

// figure4 reduces round 0 to the paper's Figure 4: mean execution time
// (CPI × complete path length) normalized to the dual-port baseline at
// 256 registers, per (arch, size).
func (b *simBench) figure4() (map[string]float64, error) {
	if len(b.first) != len(b.cells) {
		return nil, fmt.Errorf("no round ran")
	}
	execTime := func(r cellRun, bm workload.Benchmark, abi minic.ABI) (float64, error) {
		prof, err := bm.Profile(abi)
		if err != nil {
			return 0, err
		}
		return stats.ExecTime(float64(r.res.Cycles)/float64(r.committed()), prof.Stats.Insts), nil
	}
	refTime := map[string]float64{}
	for i, c := range b.cells {
		if strings.HasPrefix(c.name, "ref:") && b.first[i].res != nil {
			t, err := execTime(b.first[i], c.benches[0], minic.ABIFlat)
			if err != nil {
				return nil, err
			}
			refTime[c.benches[0].Name] = t
		}
	}
	norm := map[string][]float64{}
	for i, c := range b.cells {
		if strings.HasPrefix(c.name, "ref:") || b.first[i].res == nil {
			continue
		}
		t, err := execTime(b.first[i], c.benches[0], c.arch.ABI())
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%s/%d", archName(c.arch), c.regs)
		norm[key] = append(norm[key], t/refTime[c.benches[0].Name])
	}
	out := map[string]float64{}
	for k, v := range norm {
		out[k] = stats.Mean(v)
	}
	return out, nil
}

// writeRefs runs one round and stores every simulated cell's digest.
func (b *simBench) writeRefs() error {
	rr, err := b.round(nil)
	if err != nil {
		return err
	}
	for _, q := range rr.reqs {
		if q.failed > 0 {
			return fmt.Errorf("a cell failed; no references written")
		}
	}
	rf := &refFile{Workload: b.name, Budget: b.budget, Cells: map[string]refEntry{}}
	for i, c := range b.cells {
		if r := b.first[i]; r.res != nil {
			rf.Cells[c.name] = refEntry{Digest: cellDigest(r.res, r.counters), Cycles: r.res.Cycles, Committed: r.committed()}
		}
	}
	return writeRefs(b.refPath(), rf)
}

func (b *simBench) close() error { return nil }
