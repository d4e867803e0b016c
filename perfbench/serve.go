package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"vca/internal/core"
	"vca/internal/metrics"
	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/server"
	"vca/internal/server/shard"
	"vca/internal/simcache"
	"vca/internal/workload"
)

var tenants = [clients]string{"tenant-a", "tenant-b"}

const (
	// replaySweepsPerRound is each tenant's sweeps in one serve-replay
	// round, the fixed work wall_s times: four passes over the workload's
	// sweeps, one per benchmark group. A serve-cold-sharded round is one
	// pass.
	replaySweepsPerRound = 12
	// probeReps repeats the per-layer probes; they report the median
	// or the mean of the repetitions.
	probeReps = 5
)

// replayShape: 5 benchmarks × 3 archs × 3 sizes = 45 cells, 5 of them
// No-Baseline and 5 under register pressure, none of those on
// ideal-windowed, short enough that setup's one simulation of each, to
// fill the cache, stays cheap and costs about the same for every seed.
var replayShape = sweepShape{archs: 3, regs: 3, valid: 40, pressure: 5, idealPressure: 0, stopLo: 600, stopSpan: 20}

// replayGroup is the benchmarks per serve-replay sweep. Answering a
// cached cell costs more for some benchmarks than for others, so the
// workload's sweeps cover the 15 benchmarks once, whatever the seed.
const replayGroup = 5

// coldShape: 5 benchmarks × 2 archs × 2 sizes = 20 short cells, 5 of
// them No-Baseline and none under register pressure, so the service's
// own costs dominate. A round's sweeps cover the 15 benchmarks once.
var coldShape = sweepShape{archs: 2, regs: 2, valid: 15, pressure: 0, stopLo: 500, stopSpan: 20}

// coldGroup is the benchmarks per serve-cold-sharded sweep.
const coldGroup = 5

// daemon is one HTTP server on a loopback port.
type daemon struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close shuts the listener down and waits for the serving goroutine.
func (d *daemon) close(ctx context.Context) error {
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// worker is one in-process vcaserved: a server.Server over its own
// cache directory, listening on loopback.
type worker struct {
	srv   *server.Server
	cache *simcache.Cache
	d     *daemon
}

func startWorker(dir string, workers int) (*worker, error) {
	cache, err := simcache.Open(dir)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{Cache: cache, Workers: workers})
	d, err := listen(srv.Handler())
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	return &worker{srv: srv, cache: cache, d: d}, nil
}

func (w *worker) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(w.d.close(ctx), w.srv.Drain(ctx))
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// sweepOut is one sweep as its client saw it.
type sweepOut struct {
	cells               int // cells_total from the 202
	lines               [][]byte
	bytes               int
	submit, ttfr, total time.Duration
}

// postSweep submits one sweep and reads its NDJSON stream to the last
// line, with a span for the submission, the wait for the first line,
// and the rest of the stream.
func postSweep(hc *http.Client, base string, body []byte, rec *recorder, track, parent int) (sweepOut, error) {
	var o sweepOut
	t0 := time.Now()
	sp := rec.begin(track, parent, "server.submit")
	resp, err := hc.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		sp.end()
		return o, err
	}
	var accepted struct {
		ID         string `json:"id"`
		CellsTotal int    `json:"cells_total"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&accepted)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	sp.end()
	o.submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted {
		return o, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	if derr != nil {
		return o, fmt.Errorf("submit: %w", derr)
	}
	o.cells = accepted.CellsTotal

	sp = rec.begin(track, parent, "server.first")
	resp, err = hc.Get(base + "/v1/sweeps/" + accepted.ID + "/results")
	if err != nil {
		sp.end()
		return o, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		sp.end()
		return o, fmt.Errorf("results: status %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if o.lines == nil {
				o.ttfr = time.Since(t0)
				sp.end()
				sp = rec.begin(track, parent, "server.stream")
			}
			o.lines = append(o.lines, bytes.Clone(line))
			o.bytes += len(line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			sp.end()
			return o, fmt.Errorf("results: %w", err)
		}
	}
	sp.end()
	o.total = time.Since(t0)
	return o, nil
}

// lineCommitted reads a result line's committed count without decoding
// the counter map (the field precedes it; 0 for No-Baseline cells).
func lineCommitted(line []byte) uint64 {
	_, rest, ok := bytes.Cut(line, []byte(`"committed":`))
	if !ok {
		return 0
	}
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0
	}
	n, _ := strconv.ParseUint(string(rest[:end]), 10, 64)
	return n
}

// sweepStats totals what the clients read, for the per-layer metrics.
type sweepStats struct {
	mu           sync.Mutex
	bytes, lines int
	requested    int
}

func (s *sweepStats) add(o sweepOut, requested int) {
	s.mu.Lock()
	s.bytes += o.bytes
	s.lines += len(o.lines)
	s.requested += requested
	s.mu.Unlock()
}

// serveRequest turns one sweep outcome into a closed-loop request.
// failed counts the cells the stream got wrong.
func serveRequest(o sweepOut, err error, cells, failed int) request {
	q := request{cells: cells}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: sweep:", err)
		q.failed = cells
		return q
	}
	q.latency, q.ttfr, q.sample = o.total, o.ttfr, true
	q.failed = failed
	if o.cells != cells {
		q.failed = cells
	}
	for _, l := range o.lines {
		q.committed += lineCommitted(l)
	}
	return q
}

// cellMachine resolves a service cell to what its simulation is built
// from, the way the service does.
func cellMachine(c server.Cell) (cfg core.Config, progs []*program.Program, windowed, ok bool, err error) {
	arch := archByName[c.Arch]
	names := strings.Split(c.Benchmarks, ",")
	cfg, ok = arch.Config(len(names), c.PhysRegs, c.DL1Ports)
	if !ok {
		return cfg, nil, false, false, nil
	}
	for _, name := range names {
		b, err := workload.ByName(name)
		if err != nil {
			return cfg, nil, false, false, err
		}
		p, err := b.Build(arch.ABI())
		if err != nil {
			return cfg, nil, false, false, err
		}
		progs = append(progs, p)
	}
	cfg.StopAfter = c.StopAfter
	cfg.MaxCycles = 1 << 34
	return cfg, progs, arch.ABI() == minic.ABIWindowed, true, nil
}

// buildSweepPrograms builds the sweep's benchmarks under both ABIs.
func buildSweepPrograms(e env, req server.SweepRequest) error {
	var benches []workload.Benchmark
	for _, name := range req.Benchmarks {
		b, err := workload.ByName(name)
		if err != nil {
			return err
		}
		benches = append(benches, b)
	}
	return buildAll(e, benches, false)
}

// referenceFor simulates cells directly, without any cache, and
// encodes each result the way the service streams it.
func referenceFor(cells []server.Cell) ([]server.CellResult, [][]byte, error) {
	res, err := server.RunCells(nil, clients, cells)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range res {
		if r.Error != "" {
			return nil, nil, fmt.Errorf("reference cell %d: %s", r.Index, r.Error)
		}
	}
	lines, err := referenceLines(res)
	return res, lines, err
}

// sumCounters totals the valid results' counters and committed counts.
func sumCounters(into map[string]uint64, results []server.CellResult) (committed uint64) {
	for _, r := range results {
		for k, v := range r.Counters {
			into[k] += v
		}
		committed += r.Committed
	}
	return committed
}

// keyMicros is the mean time of server.CellKey per cell.
func keyMicros(cells []server.Cell) (float64, error) {
	t0 := time.Now()
	for k := 0; k < probeReps; k++ {
		for _, c := range cells {
			if _, _, err := server.CellKey(c); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(probeReps*len(cells)), nil
}

// putMillis is the median time of Cache.Put at the cache's current
// size, storing a copy of one cached entry under fresh keys.
func putMillis(cache *simcache.Cache, cells []server.Cell) (float64, error) {
	for _, c := range cells {
		key, ok, err := server.CellKey(c)
		if err != nil {
			return 0, err
		}
		e, hit := cache.Get(key)
		if !ok || !hit {
			continue
		}
		cfg, progs, _, _, err := cellMachine(c)
		if err != nil {
			return 0, err
		}
		var times []float64
		for k := 0; k < probeReps; k++ {
			t0 := time.Now()
			if err := cache.Put(fmt.Sprintf("%s-put-probe-%d", key, k), cfg, progs, e.Result, e.Counters); err != nil {
				return 0, err
			}
			times = append(times, ms(time.Since(t0)))
		}
		return median(times), nil
	}
	return 0, fmt.Errorf("no cached cell to copy for the Put probe")
}

// sampleSet indexes a metrics sample set by name.
type sampleSet map[string]metrics.Sample

func samplesOf(ss []metrics.Sample) sampleSet {
	out := sampleSet{}
	for _, s := range ss {
		out[s.Name] = s
	}
	return out
}

// delta is a counter's growth between two sample sets.
func delta(before, after sampleSet, name string) float64 {
	return float64(after[name].Value) - float64(before[name].Value)
}

// serviceLayers are the per-layer metrics both service workloads read
// from the metric surface and the client spans.
func serviceLayers(out map[string]float64, before, after sampleSet, spans []span, st *sweepStats) {
	hits := delta(before, after, "simcache.hits")
	lookups := hits + delta(before, after, "simcache.misses") + delta(before, after, "simcache.sf_hits")
	if lookups > 0 {
		out["simcache.hit_ratio"] = hits / lookups
	}
	out["simcache.simulations_timed"] = delta(before, after, "simcache.simulations")
	cellLat := "server.latency.cell_us"
	if n := float64(after[cellLat].Count) - float64(before[cellLat].Count); n > 0 {
		out["server.cell_us"] = (float64(after[cellLat].Sum) - float64(before[cellLat].Sum)) / n
	}
	if d, n := sumDur(spans, "server.submit"); n > 0 {
		out["server.submit_ms"] = ms(d) / float64(n)
	}
	if d, n := sumDur(spans, "server.stream"); n > 0 {
		out["server.stream_ms"] = ms(d) / float64(n)
	}
	build, _ := sumDur(spans, "workload.Build")
	out["workload.build_ms"] = ms(build)
	if st.lines > 0 {
		out["server.bytes_per_cell"] = float64(st.bytes) / float64(st.lines)
	}
}

// replayBench is serve-replay.
type replayBench struct {
	reqs   []server.SweepRequest // one per benchmark group
	mix    mix                   // per sweep; the shape makes it the same for all
	cells  [][]server.Cell       // per sweep
	w      *worker
	hc     *http.Client
	bodies [clients][][]byte // per tenant, per sweep

	ref           [][][]byte // per sweep, per cell: the reference line
	refCommitted  uint64
	refCounts     map[string]uint64
	before, after sampleSet
	st            sweepStats
	closeOnce     sync.Once
	closeErr      error
}

func setupReplay(e env) (bench, error) {
	rng := rand.New(rand.NewSource(e.seed))
	b := &replayBench{hc: newHTTPClient()}
	var all []server.Cell
	for _, g := range benchGroups(rng, replayGroup) {
		req, err := genSweep(rng, replayShape, g)
		if err != nil {
			return nil, err
		}
		if err := buildSweepPrograms(e, req); err != nil {
			return nil, err
		}
		cells, err := server.ExpandCells(&req, 0)
		if err != nil {
			return nil, err
		}
		b.reqs = append(b.reqs, req)
		b.cells = append(b.cells, cells)
		all = append(all, cells...)
	}
	b.mix = cellMix(b.reqs[0])
	w, err := startWorker(filepath.Join(e.dir, "replay"), clients)
	if err != nil {
		return nil, err
	}
	b.w = w
	sp := e.rec.begin(0, 0, "server.RunCells")
	_, err = server.RunCells(w.cache, clients, all)
	sp.end()
	if err != nil {
		b.close()
		return nil, err
	}
	for t := range tenants {
		for _, req := range b.reqs {
			req.Tenant = tenants[t]
			body, err := json.Marshal(req)
			if err != nil {
				b.close()
				return nil, err
			}
			b.bodies[t] = append(b.bodies[t], body)
		}
	}
	return b, nil
}

func (b *replayBench) prepare() error {
	b.refCounts = map[string]uint64{}
	for _, cells := range b.cells {
		res, lines, err := referenceFor(cells)
		if err != nil {
			return err
		}
		b.ref = append(b.ref, lines)
		b.refCommitted += sumCounters(b.refCounts, res)
	}
	b.before = samplesOf(b.w.srv.MetricSamples())
	return nil
}

func (b *replayBench) round(rec *recorder) (roundResult, error) {
	start := time.Now()
	reqs := closedLoop(clients, func(track int) []request {
		var out []request
		for k := 0; k < replaySweepsPerRound; k++ {
			i := k % len(b.reqs)
			root := rec.begin(track, 0, "bench.sweep")
			o, err := postSweep(b.hc, b.w.d.url, b.bodies[track-1][i], rec, track, root.id())
			root.end()
			out = append(out, serveRequest(o, err, b.mix.cells, streamFailures(o.lines, b.ref[i])))
			b.st.add(o, b.mix.cells)
		}
		return out
	})
	return roundResult{wall: time.Since(start), reqs: reqs}, nil
}

func (b *replayBench) finish() (int, error) {
	b.after = samplesOf(b.w.srv.MetricSamples())
	return 0, nil
}

func (b *replayBench) allCells() []server.Cell { return slices.Concat(b.cells...) }

func (b *replayBench) layers(spans []span, _ int) (map[string]float64, error) {
	out := counterLayers(b.refCounts, b.refCommitted)
	serviceLayers(out, b.before, b.after, spans, &b.st)
	all := b.allCells()
	out["simcache.sims_per_distinct_cell"] = float64(b.after["simcache.simulations"].Value) / float64(b.mix.valid*len(b.reqs))
	var err error
	if out["simcache.key_us"], err = keyMicros(all); err != nil {
		return nil, err
	}
	t0 := time.Now()
	for k := 0; k < probeReps; k++ {
		for _, c := range all {
			if r := server.RunCell(b.w.cache, c); r.Error != "" {
				return nil, fmt.Errorf("RunCell probe: %s", r.Error)
			}
		}
	}
	out["simcache.hit_us"] = float64(time.Since(t0).Microseconds()) / float64(probeReps*len(all))
	if out["simcache.put_ms"], err = putMillis(b.w.cache, all); err != nil {
		return nil, err
	}
	return out, nil
}

func (b *replayBench) config() map[string]any {
	var sweeps []string
	for _, req := range b.reqs {
		sweeps = append(sweeps, describeSweep(req))
	}
	distinct := b.mix.cells * len(b.reqs)
	return map[string]any{
		"sweeps":            sweeps,
		"cells_per_sweep":   b.mix.cells,
		"valid_share":       float64(b.mix.valid) / float64(b.mix.cells),
		"no_baseline_share": float64(b.mix.noBaseline) / float64(b.mix.cells),
		"duplicate_share":   dupShare(distinct, b.st.requested),
		"sweeps_per_round":  replaySweepsPerRound * clients,
		"cache_entries":     b.w.cache.Len(),
	}
}

// dupShare is the share of requested cells some earlier request already
// asked for.
func dupShare(distinct, requested int) float64 {
	if requested == 0 {
		return 0
	}
	return 1 - float64(distinct)/float64(requested)
}

func (b *replayBench) close() error {
	b.closeOnce.Do(func() {
		b.hc.CloseIdleConnections()
		b.closeErr = b.w.close()
	})
	return b.closeErr
}

// coldBench is serve-cold-sharded.
type coldBench struct {
	env env
	// cycle is one round's sweeps, one per benchmark group; sweep i of
	// a run is cycle[i%len(cycle)] with stop_after moved on by i, so
	// its cells have never run.
	cycle   []server.SweepRequest
	mix     mix // per sweep; the shape makes it the same for all
	workers []*worker
	router  *shard.Router
	rd      *daemon
	hc      *http.Client

	next          [clients]int // per tenant: index of its next sweep
	mu            sync.Mutex
	got           map[[2]int][][sha256.Size]byte // (sweep, tenant) → line hashes by cell index
	before, after sampleSet
	entriesStart  int
	entriesEnd    int
	counts        map[string]uint64
	committed     uint64
	st            sweepStats
	closeOnce     sync.Once
	closeErr      error
}

func setupCold(e env) (bench, error) {
	rng := rand.New(rand.NewSource(e.seed))
	b := &coldBench{env: e, hc: newHTTPClient(), got: map[[2]int][][sha256.Size]byte{}}
	for _, g := range benchGroups(rng, coldGroup) {
		req, err := genSweep(rng, coldShape, g)
		if err != nil {
			return nil, err
		}
		if err := buildSweepPrograms(e, req); err != nil {
			return nil, err
		}
		b.cycle = append(b.cycle, req)
	}
	for i := range b.cycle {
		b.cycle[i].StopAfter = b.cycle[0].StopAfter
	}
	b.mix = cellMix(b.cycle[0])
	var urls []string
	var err error
	for i := 0; i < 2; i++ {
		w, err := startWorker(filepath.Join(e.dir, fmt.Sprintf("cold-w%d", i)), 1)
		if err != nil {
			b.close()
			return nil, err
		}
		b.workers = append(b.workers, w)
		urls = append(urls, w.d.url)
	}
	if b.router, err = shard.New(shard.Options{Workers: urls}); err != nil {
		b.close()
		return nil, err
	}
	if b.rd, err = listen(b.router.Handler()); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// sweep is the i-th sweep of a run.
func (b *coldBench) sweep(i int) server.SweepRequest {
	r := b.cycle[i%len(b.cycle)]
	r.StopAfter += uint64(i)
	return r
}

func (b *coldBench) prepare() error {
	for _, w := range b.workers {
		b.entriesStart += w.cache.Len()
	}
	b.before = samplesOf(b.router.MetricSamples())
	return nil
}

func (b *coldBench) round(rec *recorder) (roundResult, error) {
	start := time.Now()
	reqs := closedLoop(clients, func(track int) []request {
		t := track - 1
		var out []request
		for k := 0; k < len(b.cycle); k++ {
			i := b.next[t]
			b.next[t]++
			req := b.sweep(i)
			req.Tenant = tenants[t]
			body, err := json.Marshal(req)
			if err != nil {
				out = append(out, serveRequest(sweepOut{}, err, b.mix.cells, 0))
				continue
			}
			root := rec.begin(track, 0, "bench.sweep")
			o, err := postSweep(b.hc, b.rd.url, body, rec, track, root.id())
			root.end()
			byIndex, failed := placeLines(o.lines, b.mix.cells)
			hashes := make([][sha256.Size]byte, len(byIndex))
			for j, l := range byIndex {
				if l != nil {
					hashes[j] = sha256.Sum256(l)
				}
			}
			b.mu.Lock()
			b.got[[2]int{i, t}] = hashes
			b.mu.Unlock()
			out = append(out, serveRequest(o, err, b.mix.cells, failed))
			b.st.add(o, b.mix.cells)
		}
		return out
	})
	return roundResult{wall: time.Since(start), reqs: reqs}, nil
}

// finish checks every streamed line against a direct simulation of the
// same cells, made now so the timed phase paid nothing for it.
func (b *coldBench) finish() (int, error) {
	b.after = samplesOf(b.router.MetricSamples())
	for _, w := range b.workers {
		b.entriesEnd += w.cache.Len()
	}
	n := max(b.next[0], b.next[1])
	var all []server.Cell
	for i := 0; i < n; i++ {
		req := b.sweep(i)
		cells, err := server.ExpandCells(&req, 0)
		if err != nil {
			return 0, err
		}
		all = append(all, cells...)
	}
	res, err := server.RunCells(nil, clients, all)
	if err != nil {
		return 0, err
	}
	b.counts = map[string]uint64{}
	failed := 0
	for i := 0; i < n; i++ {
		sweepRes := res[i*b.mix.cells : (i+1)*b.mix.cells]
		for _, r := range sweepRes {
			if r.Error != "" {
				return 0, fmt.Errorf("reference sweep %d cell %d: %s", i, r.Index, r.Error)
			}
		}
		lines, err := referenceLines(sweepRes)
		if err != nil {
			return 0, err
		}
		if i < len(b.cycle) {
			b.committed += sumCounters(b.counts, sweepRes)
		}
		for t := range tenants {
			got, ok := b.got[[2]int{i, t}]
			if !ok {
				continue
			}
			for j, l := range lines {
				if got[j] != ([sha256.Size]byte{}) && got[j] != sha256.Sum256(l) {
					failed++
				}
			}
		}
	}
	return failed, nil
}

func (b *coldBench) layers(spans []span, _ int) (map[string]float64, error) {
	out := counterLayers(b.counts, b.committed)
	serviceLayers(out, b.before, b.after, spans, &b.st)
	distinct := float64(max(b.next[0], b.next[1]) * b.mix.valid)
	out["simcache.sims_per_distinct_cell"] = out["simcache.simulations_timed"] / distinct
	out["shard.retries"] = delta(b.before, b.after, "server.shard.retries")
	out["shard.failovers"] = delta(b.before, b.after, "server.shard.failovers")
	var routed []float64
	for i := range b.workers {
		routed = append(routed, delta(b.before, b.after, fmt.Sprintf("server.shard.routed.w%d", i)))
	}
	if m := mean(routed); m > 0 {
		out["shard.balance"] = slices.Max(routed) / m
	}
	req := b.sweep(0)
	cells, err := server.ExpandCells(&req, 0)
	if err != nil {
		return nil, err
	}
	if out["simcache.key_us"], err = keyMicros(cells); err != nil {
		return nil, err
	}
	if out["simcache.put_ms"], err = putMillis(b.ownerCache(cells), cells); err != nil {
		return nil, err
	}
	if out["core.new_ms"], err = newMillis(cells); err != nil {
		return nil, err
	}
	if out["shard.overhead_ms_per_cell"], err = b.shardOverhead(req); err != nil {
		return nil, err
	}
	return out, nil
}

// ownerCache is the worker cache holding the first valid cell.
func (b *coldBench) ownerCache(cells []server.Cell) *simcache.Cache {
	for _, c := range cells {
		key, ok, err := server.CellKey(c)
		if err != nil || !ok {
			continue
		}
		for _, w := range b.workers {
			if _, hit := w.cache.Get(key); hit {
				return w.cache
			}
		}
	}
	return b.workers[0].cache
}

// newMillis is the mean time of core.New over the valid cells.
func newMillis(cells []server.Cell) (float64, error) {
	var total time.Duration
	n := 0
	for k := 0; k < probeReps; k++ {
		for _, c := range cells {
			cfg, progs, windowed, ok, err := cellMachine(c)
			if err != nil {
				return 0, err
			}
			if !ok {
				continue
			}
			t0 := time.Now()
			if _, err := core.New(cfg, progs, windowed); err != nil {
				return 0, err
			}
			total += time.Since(t0)
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return ms(total) / float64(n), nil
}

// shardOverhead sends one sweep through a 1-worker router and the same
// sweep straight to a worker, each over a fresh cache, and returns the
// median difference per cell.
func (b *coldBench) shardOverhead(req server.SweepRequest) (float64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	timeSweep := func(name string, routed bool) (time.Duration, error) {
		w, err := startWorker(filepath.Join(b.env.dir, name), 1)
		if err != nil {
			return 0, err
		}
		defer w.close()
		url := w.d.url
		if routed {
			r, err := shard.New(shard.Options{Workers: []string{w.d.url}})
			if err != nil {
				return 0, err
			}
			d, err := listen(r.Handler())
			if err != nil {
				r.Drain(context.Background())
				return 0, err
			}
			defer func() {
				d.close(context.Background())
				r.Drain(context.Background())
			}()
			url = d.url
		}
		o, err := postSweep(b.hc, url, body, nil, 0, 0)
		if err != nil {
			return 0, err
		}
		if len(o.lines) != b.mix.cells {
			return 0, fmt.Errorf("shard probe: %d of %d lines", len(o.lines), b.mix.cells)
		}
		return o.total, nil
	}
	var per []float64
	for k := 0; k < probeReps; k++ {
		var via, direct time.Duration
		// Alternate which side runs first, so warm-up favours neither.
		for _, routed := range []bool{k%2 == 0, k%2 != 0} {
			d, err := timeSweep(fmt.Sprintf("probe-%d-%v", k, routed), routed)
			if err != nil {
				return 0, err
			}
			if routed {
				via = d
			} else {
				direct = d
			}
		}
		per = append(per, ms(via-direct)/float64(b.mix.cells))
	}
	b.hc.CloseIdleConnections()
	return median(per), nil
}

func (b *coldBench) config() map[string]any {
	return map[string]any{
		"sweeps":              describeCycle(b.cycle),
		"stop_after":          "the first sweep's, plus the sweep's index in the run",
		"cells_per_sweep":     b.mix.cells,
		"valid_share":         float64(b.mix.valid) / float64(b.mix.cells),
		"no_baseline_share":   float64(b.mix.noBaseline) / float64(b.mix.cells),
		"duplicate_share":     dupShare(max(b.next[0], b.next[1])*b.mix.cells, b.st.requested),
		"sweeps_per_round":    len(b.cycle) * clients,
		"sweeps_run":          b.next[0] + b.next[1],
		"cache_entries_start": b.entriesStart,
		"cache_entries_end":   b.entriesEnd,
		"workers":             len(b.workers),
		"worker_goroutines":   1,
	}
}

func describeCycle(cycle []server.SweepRequest) []string {
	var out []string
	for _, r := range cycle {
		out = append(out, describeSweep(r))
	}
	return out
}

func (b *coldBench) close() error {
	b.closeOnce.Do(func() {
		b.hc.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var errs []error
		if b.rd != nil {
			errs = append(errs, b.rd.close(ctx))
		}
		if b.router != nil {
			errs = append(errs, b.router.Drain(ctx))
		}
		for _, w := range b.workers {
			errs = append(errs, w.close())
		}
		b.closeErr = errors.Join(errs...)
	})
	return b.closeErr
}
