// Command perfbench is the repository's benchmark: four closed-loop
// workloads over the simulator and the sweep service, each checked for
// correct results, with end-to-end metrics from an untraced run and
// per-layer metrics from a traced one.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Run it from the repository root. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}; the
// lines before it are the same figures for a reader, plus the measured
// configuration. A full record of each run, and the Chrome trace of a
// traced run, go to $CARGO_TARGET_DIR/perfbench (default
// .bench_build/perfbench).
//
// Every simulation runs the user-facing default configuration
// (core.DefaultConfig: co-simulation on, checker and timelines off).
// The simulator workloads run one simulation at a time; the service
// workloads have two tenants, so at most two client connections are
// open. That sizes the benchmark for a 2-core host: a second
// simulator client would share the cores with the first and with the
// garbage collector, and time the scheduler as much as the simulator.
//
// The workloads, and why each is there:
//
//   - regwin-sweep: the paper's Figure 4 sweep (4 archs × 4 register
//     sizes × 15 call-frequent benchmarks, plus the 15 dual-port
//     baseline references), cache off. Its host time is almost all
//     rename-substrate work under register pressure.
//   - table1-core: Table 1 machines with 256 registers, each thread
//     fast-forwarded functionally, then simulated in detail through the
//     vca facade. The pipeline, caches, predictor and co-simulation do
//     the work; the rename eviction path stays idle.
//   - serve-replay: one in-process vcaserved over a cache setup filled;
//     two tenants replay seeded sweeps. HTTP, the queue, key
//     derivation, entry reads and NDJSON encoding do the work.
//   - serve-cold-sharded: a shard router over two in-process workers
//     with empty caches; two tenants submit the same seeded sweeps of
//     never-run cells, so routing, stream merging, cache writes and
//     singleflight dedup all run.
//
// Results are checked on every run: simulator workloads against the
// per-cell digests in refs/, service workloads line for line against
// server.RunCells over the same cells.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"vca/internal/core"
)

// clients is the service workloads' closed-loop client (tenant) count:
// at most this many sweeps are in flight at once. The simulator
// workloads run simClients.
const clients = 2

// simClients is the simulator workloads' closed-loop client count.
const simClients = 1

// A run sets its workload up at least setupRuns times, and goes on
// while its child setups have taken less than setupBudget, up to
// maxSetupRuns; setup_s is the median. All but the last set up in a
// child process, because the program memoizes builds and profiles per
// process. A setup of a few tens of milliseconds is mostly process
// start-up noise, so it gets more samples than a long one.
const (
	setupRuns    = 5
	maxSetupRuns = 15
	setupBudget  = 2 * time.Second
)

// request is the outcome of one closed-loop request: one simulation on
// the simulator workloads, one sweep on the service workloads.
type request struct {
	latency   time.Duration
	ttfr      time.Duration // service workloads: submit to first result line
	cells     int           // cells attempted
	failed    int           // cells failed, refused, timed out or wrong
	committed uint64        // committed instructions of the answered valid cells
	sample    bool          // a latency sample (No-Baseline cells answer without simulating)
}

type roundResult struct {
	wall time.Duration
	reqs []request
}

// bench is one set-up workload.
type bench interface {
	// prepare makes what the correctness check compares against. It
	// runs after setup and before the timed phase, untimed.
	prepare() error
	// round runs the workload's fixed unit of work once. rec is nil
	// in untraced rounds.
	round(rec *recorder) (roundResult, error)
	// finish runs the checks deferred past the timed phase and returns
	// how many cells they failed.
	finish() (failed int, err error)
	// layers measures the per-layer metrics after a traced run. spans
	// holds every span of the run, setup included; tracedRounds is how
	// many rounds recorded spans.
	layers(spans []span, tracedRounds int) (map[string]float64, error)
	// config describes what was measured, for the run's record.
	config() map[string]any
	close() error
}

// env is what setup gets.
type env struct {
	seed int64
	rec  *recorder // nil unless traced: setup spans land here
	dir  string    // this process's scratch directory
	refs string    // the reference digests directory (perfbench/refs)
}

type workloadSpec struct {
	name  string
	why   string
	setup func(env) (bench, error)
	// roundsPerSecond, when set, fixes a run's work at this many rounds
	// per second of -seconds instead of timing rounds until the time is
	// up. A workload whose state grows as it runs needs it — the service
	// keeps every finished job in memory, and on serve-cold-sharded the
	// cache index grows with every store — so that every run ends at the
	// same state, however fast the host or the commit.
	roundsPerSecond int
	// clients is how many closed-loop clients the workload runs.
	clients int
}

var workloads = []workloadSpec{
	{"regwin-sweep", "the paper's Figure 4 sweep: host time is almost all rename-substrate work under register pressure", setupRegwin, 0, simClients},
	{"table1-core", "Table 1 machines with roomy register files: pipeline, memory, predictor and co-simulation work, rename eviction idle", setupTable1, 0, simClients},
	{"serve-replay", "a cached sweep replayed over HTTP: the service's cheap path, where the core does no work", setupReplay, 2, clients},
	{"serve-cold-sharded", "never-run cells through a 2-worker router: dispatch, stream merge, cache writes and singleflight dedup", setupCold, 1, clients},
}

// endToEnd lists the metrics of an untraced run, with their units.
// Every round does a fixed amount of work, so cells_per_s and sim_mips
// are wall_s's reciprocals scaled by a constant; they are printed and
// recorded with the extra figures rather than reported twice over.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// extraUnits are the units of the extra figures endToEndMetrics prints.
var extraUnits = map[string]string{
	"rounds":          "count",
	"latency_samples": "count",
	"cells_per_s":     "1/s",
	"sim_mips":        "MIPS",
	"lat_p99_ms":      "ms",
	"ttfr_p50_ms":     "ms",
}

// perLayer lists the metrics of a traced run, with their units. A
// workload that does not exercise a layer reports it as 0.
var perLayer = []struct{ name, unit string }{
	{"workload.build_ms", "ms"},
	{"emu.profile_ms", "ms"},
	{"emu.fastforward_ms", "ms"},
	{"emu.fastforward_mips", "MIPS"},
	{"cosim.share", "ratio"},
	{"core.new_ms", "ms"},
	{"core.run_s", "s"},
	{"core.run_s.pressure", "s"},
	{"core.run_s.roomy", "s"},
	{"core.ns_per_inst", "ns"},
	{"core.ns_per_cycle", "ns"},
	{"core.cycles", "count"},
	{"core.commit.uops", "count"},
	{"core.commit.squashed", "count"},
	{"rename.vca.stalls", "per_kinst"},
	{"rename.vca.phys_evicts", "per_kinst"},
	{"rename.vca.spills", "per_kinst"},
	{"rename.vca.fills", "per_kinst"},
	{"mem.dl1.accesses", "count"},
	{"mem.dl1.spill_fill_share", "ratio"},
	{"branch.cond_mispredict_rate", "ratio"},
	{"simcache.key_us", "us"},
	{"simcache.hit_us", "us"},
	{"simcache.put_ms", "ms"},
	{"simcache.hit_ratio", "ratio"},
	{"simcache.sims_per_distinct_cell", "ratio"},
	{"simcache.simulations_timed", "count"},
	{"server.submit_ms", "ms"},
	{"server.stream_ms", "ms"},
	{"server.cell_us", "us"},
	{"server.bytes_per_cell", "bytes"},
	{"shard.overhead_ms_per_cell", "ms"},
	{"shard.balance", "ratio"},
	{"shard.retries", "count"},
	{"shard.failovers", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	setupOnly bool
	writeRefs bool
	out       string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "set the workload up, print the setup time, and exit (used for setup_s)")
	flag.BoolVar(&o.writeRefs, "write-refs", false, "regenerate refs/<workload>.json from one round (simulator workloads)")
	flag.Parse()
	o.trace = traceFlag == 1
	out := os.Getenv("CARGO_TARGET_DIR")
	if out == "" {
		out = ".bench_build"
	}
	o.out = filepath.Join(out, "perfbench")
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(o options, stdout io.Writer) error {
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == o.workload {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	refs := filepath.Join("perfbench", "refs")
	if _, err := os.Stat(refs); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var setupSamples []float64
	if !o.setupOnly && !o.trace && !o.writeRefs {
		start := time.Now()
		for i := 1; i < maxSetupRuns && (i < setupRuns || time.Since(start) < setupBudget); i++ {
			s, err := childSetup(o)
			if err != nil {
				return fmt.Errorf("setup run %d: %w", i, err)
			}
			setupSamples = append(setupSamples, s)
		}
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	t0 := time.Now()
	b, err := spec.setup(env{seed: o.seed, rec: rec, dir: dir, refs: refs})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setupSamples = append(setupSamples, time.Since(t0).Seconds())
	defer b.close()
	if o.setupOnly {
		fmt.Fprintln(stdout, strconv.FormatFloat(setupSamples[0], 'g', -1, 64))
		return b.close()
	}
	if o.writeRefs {
		sb, ok := b.(*simBench)
		if !ok {
			return fmt.Errorf("%s checks against server.RunCells and keeps no reference file", spec.name)
		}
		return sb.writeRefs()
	}
	if err := b.prepare(); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}

	ph, err := timedPhase(spec, o, b, rec)
	if err != nil {
		return err
	}
	// Peak memory is read before finish, whose reference simulations
	// are the benchmark's own work.
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	deferredFailed, err := b.finish()
	if err != nil {
		return fmt.Errorf("finish: %w", err)
	}

	var attempted, failed int
	for _, rr := range slices.Concat(ph.warm, ph.untraced, ph.traced) {
		for _, q := range rr.reqs {
			attempted += q.cells
			failed += q.failed
		}
	}
	failed += deferredFailed
	if attempted == 0 {
		return fmt.Errorf("no cells attempted")
	}

	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	record := map[string]any{
		"workload": spec.name, "why": spec.why, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": hostConfig(), "clients": spec.clients, "workload_config": b.config(),
		"error_rate": float64(failed) / float64(attempted),
	}
	var human []string
	if o.trace {
		spans := rec.snapshot()
		lm, err := b.layers(spans, len(ph.traced))
		if err != nil {
			return fmt.Errorf("layers: %w", err)
		}
		lm["trace.overhead_frac"] = medianWall(ph.traced)/medianWall(ph.untraced) - 1
		lm["trace.unattributed_frac"] = unattributedOver(spans, ph.windows, spec.clients)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: lm[m.name], Unit: m.unit}
			human = append(human, fmt.Sprintf("%-32s %14.6g %s", m.name, lm[m.name], m.unit))
		}
		self := selfMillis(selfTimes(spansIn(spans, ph.windows)), len(ph.traced))
		human = append(human, fmt.Sprintf("self time per traced round (%d rounds):", len(ph.traced)))
		for _, name := range sortedKeys(self) {
			human = append(human, fmt.Sprintf("  %-30s %12.3f ms", name, self[name]))
		}
		record["self_ms_per_round"] = self
		if err := writeChromeTrace(filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", spec.name, o.seed)), "perfbench "+spec.name, spans); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	} else {
		e2e, extra, err := endToEndMetrics(ph.untraced, setupSamples, rss)
		if err != nil {
			return err
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
			human = append(human, fmt.Sprintf("%-14s %12.6g %s", m.name, e2e[m.name], m.unit))
		}
		for _, k := range sortedKeys(extra) {
			human = append(human, fmt.Sprintf("%-14s %12.6g %s", k, extra[k], extraUnits[k]))
		}
		record["extra"] = extra
		var walls []float64
		for _, rr := range ph.untraced {
			walls = append(walls, rr.wall.Seconds())
		}
		record["round_wall_s"] = walls
	}
	human = append(human, fmt.Sprintf("%-14s %12.6g (%d of %d cells)", "error_rate", float64(failed)/float64(attempted), failed, attempted))
	record["result"] = res

	cfgLine, err := json.Marshal(record["workload_config"])
	if err != nil {
		return err
	}
	hostLine, err := json.Marshal(record["host"])
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload %s (seed %d, trace %v): %s\n", spec.name, o.seed, o.trace, spec.why)
	fmt.Fprintf(stdout, "host %s\n", hostLine)
	fmt.Fprintf(stdout, "config %s\n", cfgLine)
	for _, l := range human {
		fmt.Fprintln(stdout, l)
	}
	if err := writeRecord(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", spec.name, o.seed, btoi(o.trace))), record); err != nil {
		return err
	}
	if err := b.close(); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// phase is what the timed phase ran.
type phase struct {
	warm, untraced, traced []roundResult
	windows                []interval // the traced rounds, on the recorder's clock
}

// timedPhase runs whole rounds until the time is up and the tail
// percentile has enough samples beyond it, or a fixed number of rounds.
// A time-bound workload first runs one untimed round, so lazy set-up,
// heap growth and first-touch page faults are not timed; it is checked
// like every other round. A traced run alternates untraced and traced
// rounds so the two can be compared. Every round starts on a freshly
// collected heap (see collectedRound).
func timedPhase(spec *workloadSpec, o options, b bench, rec *recorder) (phase, error) {
	var ph phase
	if spec.roundsPerSecond == 0 {
		rr, err := collectedRound(b, nil)
		if err != nil {
			return ph, err
		}
		ph.warm = append(ph.warm, rr)
	}
	var samples int
	start := time.Now()
	for r := 0; ; r++ {
		done := time.Since(start) >= time.Duration(o.seconds)*time.Second
		if spec.roundsPerSecond > 0 {
			done = r >= spec.roundsPerSecond*o.seconds
		}
		if done && (o.trace && len(ph.traced) > 0 || !o.trace && samples >= 10*minBeyond) {
			return ph, nil
		}
		if time.Since(start) > time.Duration(6*o.seconds)*time.Second {
			return ph, fmt.Errorf("timed phase: gave up after %v with %d latency samples (need %d) and %d traced rounds",
				time.Since(start), samples, 10*minBeyond, len(ph.traced))
		}
		if o.trace && r%2 == 1 {
			runtime.GC()
			lo := rec.now()
			rr, err := b.round(rec)
			if err != nil {
				return ph, err
			}
			ph.windows = append(ph.windows, interval{lo, rec.now()})
			ph.traced = append(ph.traced, rr)
			continue
		}
		rr, err := collectedRound(b, nil)
		if err != nil {
			return ph, err
		}
		ph.untraced = append(ph.untraced, rr)
		for _, q := range rr.reqs {
			if q.sample {
				samples++
			}
		}
	}
}

// collectedRound runs one round after an untimed garbage collection,
// so a round does not pay for garbage the rounds before it left, and
// where in a GC cycle a round starts does not vary from run to run.
// The collections the round's own allocations cause are timed.
func collectedRound(b bench, rec *recorder) (roundResult, error) {
	runtime.GC()
	return b.round(rec)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndMetrics reduces the untraced rounds; rss is the peak resident
// memory at the end of the timed phase. Rates are medians of the
// per-round rates, like wall_s, so a few rounds slowed by the host do
// not move them. extra holds figures a reader wants that are not
// end-to-end metrics.
func endToEndMetrics(rounds []roundResult, setupSamples []float64, rss float64) (e2e, extra map[string]float64, err error) {
	var lat, ttfr, cellRates, instRates []float64
	for _, rr := range rounds {
		var cells int
		var committed uint64
		for _, q := range rr.reqs {
			cells += q.cells
			committed += q.committed
			if q.sample {
				lat = append(lat, ms(q.latency))
				if q.ttfr > 0 {
					ttfr = append(ttfr, ms(q.ttfr))
				}
			}
		}
		cellRates = append(cellRates, float64(cells)/rr.wall.Seconds())
		instRates = append(instRates, float64(committed)/rr.wall.Seconds()/1e6)
	}
	p90, ok := tailPercentile(lat, 0.90)
	if !ok {
		return nil, nil, fmt.Errorf("only %d latency samples: too few for a 90th percentile", len(lat))
	}
	e2e = map[string]float64{
		"setup_s":     median(setupSamples),
		"wall_s":      medianWall(rounds),
		"lat_p50_ms":  median(lat),
		"lat_p90_ms":  p90,
		"peak_rss_mb": rss,
	}
	extra = map[string]float64{
		"rounds":          float64(len(rounds)),
		"latency_samples": float64(len(lat)),
		"cells_per_s":     median(cellRates),
		"sim_mips":        median(instRates),
	}
	if p99, ok := tailPercentile(lat, 0.99); ok {
		extra["lat_p99_ms"] = p99
	}
	if len(ttfr) > 0 {
		extra["ttfr_p50_ms"] = median(ttfr)
	}
	return e2e, extra, nil
}

func medianWall(rounds []roundResult) float64 {
	var walls []float64
	for _, rr := range rounds {
		walls = append(walls, rr.wall.Seconds())
	}
	return median(walls)
}

// spansIn keeps the spans that start inside one of the windows.
func spansIn(spans []span, windows []interval) []span {
	var out []span
	for _, s := range spans {
		for _, w := range windows {
			if s.start >= w.lo && s.start < w.hi {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// unattributedOver is unattributedFrac over several windows, weighted
// by their lengths.
func unattributedOver(spans []span, windows []interval, tracks int) float64 {
	var num, den float64
	for _, w := range windows {
		d := float64(w.hi - w.lo)
		num += unattributedFrac(spans, tracks, w.lo, w.hi) * d
		den += d
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func selfMillis(self map[string]time.Duration, rounds int) map[string]float64 {
	out := map[string]float64{}
	for k, v := range self {
		out[k] = float64(v.Microseconds()) / 1e3 / float64(max(rounds, 1))
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //lint:maporder keys are collected then sorted before return
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hostConfig is the measured configuration every record carries.
func hostConfig() map[string]any {
	return map[string]any{
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cosim":      core.DefaultConfig(core.RenameVCA, core.WindowVCA, 1, 256).CoSim,
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// childSetup sets the workload up in a fresh process and returns the
// setup time it reports.
func childSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-setup-only", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, err
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(out.String()), 64)
	if err != nil || math.IsNaN(s) {
		return 0, fmt.Errorf("setup child printed %q", out.String())
	}
	return s, nil
}

func writeRecord(path string, record map[string]any) error {
	b, err := json.MarshalIndent(record, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
