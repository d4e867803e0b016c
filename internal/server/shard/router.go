package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vca/internal/metrics"
	"vca/internal/server"
)

// Options configures a Router. Zero values take the documented
// defaults, so only Workers is required.
type Options struct {
	// Workers are the vcaserved base URLs the router shards over
	// (e.g. "http://10.0.0.1:8080"). Required, non-empty, distinct.
	Workers []string
	// VNodes is the virtual-node count per worker on the hash ring
	// (0 = 128). More vnodes = better balance, larger ring.
	VNodes int
	// MaxCellsPerSweep bounds a single sweep's expansion
	// (0 = server.DefaultMaxCellsPerSweep), mirroring the worker-side
	// limit so the router rejects what a worker would have rejected.
	MaxCellsPerSweep int
	// JobTimeout is the default per-job wall-time budget, overridable
	// per request via timeout_sec (0 = 10m). Dispatched cells carry the
	// remaining budget to their worker, so a routed cell observes the
	// same deadline as a local one.
	JobTimeout time.Duration
	// Inflight bounds the router's concurrent dispatches per worker
	// (0 = 16). Beyond it, cells wait in the router rather than piling
	// connections onto a busy worker. The router runs len(Workers) ×
	// Inflight dispatch goroutines.
	Inflight int
	// RetryAttempts is how many times a cell is tried against one
	// worker before failing over to the ring successor (0 = 3).
	RetryAttempts int
	// RetryBase is the first retry's backoff; each further retry
	// doubles it (0 = 100ms).
	RetryBase time.Duration
	// HealthInterval is the background /readyz probe period (0 = 2s;
	// negative disables probing — dispatch-path failures still mark
	// workers down, but nothing brings a recovered worker back).
	HealthInterval time.Duration
	// ScrapeTimeout bounds each worker /metrics.json fetch during
	// aggregation (0 = 2s).
	ScrapeTimeout time.Duration
	// StreamWriteTimeout and EnablePprof pass through to the engine;
	// see server.Options.
	StreamWriteTimeout time.Duration
	EnablePprof        bool
	// Client overrides the dispatch HTTP client (nil builds one with a
	// keep-alive pool sized to Inflight per worker).
	Client *http.Client
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.VNodes <= 0 {
		out.VNodes = 128
	}
	if out.Inflight <= 0 {
		out.Inflight = 16
	}
	if out.RetryAttempts <= 0 {
		out.RetryAttempts = 3
	}
	if out.RetryBase <= 0 {
		out.RetryBase = 100 * time.Millisecond
	}
	if out.HealthInterval == 0 {
		out.HealthInterval = 2 * time.Second
	}
	if out.ScrapeTimeout <= 0 {
		out.ScrapeTimeout = 2 * time.Second
	}
	return out
}

// Router fans sweeps out across a fleet of vcaserved workers with
// cache-affine cell routing (see the package comment). It is a
// server.Server — the admission, queue, job table, drain and HTTP API a
// worker runs — whose executor, the dispatcher, sends each cell it pops
// to the worker owning the cell's cache key. A client cannot tell it
// from a worker.
type Router struct {
	*server.Server
	d *dispatcher
}

// dispatcher is the router's server.Executor: the ring, the worker pool
// and the router's own series.
type dispatcher struct {
	opts Options
	ring *Ring
	pool *workerPool
	met  routerMetrics
}

// New builds a router over the given workers and starts its dispatch
// goroutines and health prober. Callers own shutdown via Drain.
func New(opts Options) (*Router, error) {
	o := opts.withDefaults()
	if len(o.Workers) == 0 {
		return nil, fmt.Errorf("shard router needs at least one worker")
	}
	workers := make([]string, len(o.Workers))
	seen := make(map[string]bool, len(o.Workers))
	for i, w := range o.Workers {
		w = strings.TrimRight(strings.TrimSpace(w), "/")
		if w == "" {
			return nil, fmt.Errorf("worker %d: empty URL", i)
		}
		if !strings.HasPrefix(w, "http://") && !strings.HasPrefix(w, "https://") {
			w = "http://" + w
		}
		if seen[w] {
			return nil, fmt.Errorf("duplicate worker %s", w)
		}
		seen[w] = true
		workers[i] = w
	}
	o.Workers = workers
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: o.Inflight, // persistent connections cover the full dispatch window
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	d := &dispatcher{
		opts: o,
		ring: NewRing(workers, o.VNodes),
		pool: newWorkerPool(workers, o.Client, o.Inflight, o.HealthInterval),
	}
	d.met.perWorker = make([]atomic.Uint64, len(workers))
	srv := server.NewWithExecutor(server.Options{
		// One dispatch goroutine per worker slot, so the pool's
		// per-worker semaphore, not the goroutine count, bounds each
		// worker's load. The queue bound is the engine default.
		Workers:            len(workers) * o.Inflight,
		MaxCellsPerSweep:   o.MaxCellsPerSweep,
		JobTimeout:         o.JobTimeout,
		StreamWriteTimeout: o.StreamWriteTimeout,
		EnablePprof:        o.EnablePprof,
	}, "server.shard", d)
	return &Router{Server: srv, d: d}, nil
}

// Drain drains the engine like a worker's (server.Server.Drain: every
// admitted cell is answered), then stops the health prober.
func (r *Router) Drain(ctx context.Context) error {
	err := r.Server.Drain(ctx)
	r.d.pool.Close()
	return err
}

// Dispatch error classes. Busy (worker 429) fails over without marking
// the worker down — it is healthy, just full. Draining (worker 503)
// fails over immediately and marks the worker down; the prober brings
// it back if it returns. A permanentError is a final answer (version
// skew: the worker rejected a cell the router admitted).
var (
	errWorkerBusy     = errors.New("worker queue full")
	errWorkerDraining = errors.New("worker draining")
)

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }

// Run routes one cell: derive its content address, walk the ring from
// its owner, and answer the cell whatever happens.
func (d *dispatcher) Run(ctx context.Context, j *server.Job, cell server.Cell) server.CellResult {
	key, ok, err := server.CellKey(cell)
	if err != nil {
		// A build failure needs no worker: answer it locally with the
		// exact error RunCell would produce.
		d.met.cellsLocal.Add(1)
		return server.CellResult{Cell: cell, Error: err.Error()}
	}
	if !ok {
		// "No Baseline" region: the architecture cannot operate at this
		// size. A well-formed Valid=false answer, no simulation, no key.
		d.met.cellsLocal.Add(1)
		return server.CellResult{Cell: cell}
	}

	order := d.ring.Successors(key)
	candidates := make([]string, 0, len(order))
	for _, w := range order {
		if d.pool.Healthy(w) {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		candidates = order // a fully-marked-down fleet still gets one pass
	}
	var lastErr error
	for wi, w := range candidates {
		if err := ctx.Err(); err != nil {
			return server.CellResult{Cell: cell, Error: fmt.Sprintf("cell not started: %v", err)}
		}
		if wi > 0 {
			d.met.failovers.Add(1)
		}
		res, err := d.tryWorker(ctx, j, w, cell, key)
		if err == nil {
			if w != order[0] {
				d.met.remapped.Add(1)
			}
			d.met.cellsRouted.Add(1)
			d.met.perWorker[d.pool.index[w]].Add(1)
			return res
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return server.CellResult{Cell: cell, Error: err.Error()}
		}
		// A busy worker is healthy, just full. An attempt cut short by the
		// job's deadline (or a forced drain) says nothing about the worker
		// either: marking it down would remap its whole ring arc cold for
		// every tenant because one client's budget ran out.
		if !errors.Is(err, errWorkerBusy) && ctx.Err() == nil {
			d.pool.MarkDown(w)
		}
		lastErr = err
	}
	return server.CellResult{Cell: cell, Error: fmt.Sprintf("cell undeliverable: every worker failed, last: %v", lastErr)}
}

// tryWorker runs the per-worker retry loop: up to RetryAttempts
// dispatches with exponential backoff, under the worker's in-flight
// slot. A draining worker short-circuits to failover.
func (d *dispatcher) tryWorker(ctx context.Context, j *server.Job, worker string, cell server.Cell, key string) (server.CellResult, error) {
	if err := d.pool.Acquire(ctx, worker); err != nil {
		return server.CellResult{}, err // job deadline: Run answers it
	}
	defer d.pool.Release(worker)

	var lastErr error
	for attempt := 0; attempt < d.opts.RetryAttempts; attempt++ {
		if attempt > 0 {
			d.met.retries.Add(1)
			if !sleepCtx(ctx, d.opts.RetryBase<<(attempt-1)) {
				return server.CellResult{}, ctx.Err()
			}
		}
		start := time.Now()
		res, err := d.dispatchOnce(ctx, worker, j, cell, key)
		if err == nil {
			d.met.latDispatch.Observe(uint64(time.Since(start).Microseconds()))
			return res, nil
		}
		lastErr = err
		var perm *permanentError
		if errors.As(err, &perm) || errors.Is(err, errWorkerDraining) || ctx.Err() != nil {
			break
		}
	}
	return server.CellResult{}, lastErr
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// dispatchOnce performs one round trip: submit the cell to the worker
// as a single-cell sweep (the worker API is unchanged — a router
// dispatch is indistinguishable from a tiny client sweep), then read
// its one-line NDJSON result stream. The returned result carries the
// original cell coordinates, so the merged client stream is
// byte-identical per cell to a single daemon's. A result stored under
// another key than the cell was routed by (key) is a final error: the
// worker runs another simulator version.
func (d *dispatcher) dispatchOnce(ctx context.Context, worker string, j *server.Job, cell server.Cell, key string) (server.CellResult, error) {
	var zero server.CellResult
	wreq := server.SweepRequest{
		Tenant:     j.Tenant,
		Priority:   j.Priority.String(),
		Benchmarks: []string{cell.Benchmarks},
		Archs:      []string{cell.Arch},
		PhysRegs:   []int{cell.PhysRegs},
		DL1Ports:   []int{cell.DL1Ports},
		StopAfter:  cell.StopAfter,
	}
	// The worker's job budget is the router job's remaining budget plus
	// a second, so the router-side deadline always fires first and the
	// client sees one consistent timeout error.
	if dl, ok := ctx.Deadline(); ok {
		wreq.TimeoutSec = int(time.Until(dl).Seconds()) + 1
		if wreq.TimeoutSec < 1 {
			wreq.TimeoutSec = 1
		}
	}
	body, err := json.Marshal(wreq)
	if err != nil {
		return zero, &permanentError{fmt.Errorf("encoding cell request: %w", err)}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return zero, &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.opts.Client.Do(req)
	if err != nil {
		return zero, fmt.Errorf("submitting to %s: %w", worker, err)
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		drainBody(resp)
		return zero, fmt.Errorf("%w: %s", errWorkerBusy, worker)
	case http.StatusServiceUnavailable:
		drainBody(resp)
		return zero, fmt.Errorf("%w: %s", errWorkerDraining, worker)
	default:
		msg := readError(resp)
		return zero, &permanentError{fmt.Errorf("worker %s rejected cell (status %d): %s", worker, resp.StatusCode, msg)}
	}
	var acc struct {
		ID         string `json:"id"`
		ResultsURL string `json:"results_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil {
		return zero, fmt.Errorf("decoding %s accept body: %w", worker, err)
	}

	rreq, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+acc.ResultsURL, nil)
	if err != nil {
		return zero, &permanentError{err}
	}
	rresp, err := d.opts.Client.Do(rreq)
	if err != nil {
		return zero, fmt.Errorf("streaming from %s: %w", worker, err)
	}
	defer drainBody(rresp)
	if rresp.StatusCode != http.StatusOK {
		return zero, fmt.Errorf("worker %s results stream: status %d", worker, rresp.StatusCode)
	}
	res, err := server.DecodeResult(rresp.Body, key)
	if errors.Is(err, server.ErrKeyMismatch) {
		return zero, &permanentError{fmt.Errorf("worker %s: %w", worker, err)}
	}
	if err != nil {
		// Stream cut before the result landed: the worker died mid-cell.
		// Retryable — re-simulation elsewhere is safe, results append to
		// the job only here, after a complete line.
		return zero, fmt.Errorf("reading result from %s: %w", worker, err)
	}
	res.Cell = cell // restore the original sweep coordinates (Index above all)
	return res, nil
}

func drainBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}

func readError(resp *http.Response) string {
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err == nil && e.Error != "" {
		return e.Error
	}
	return "unknown error"
}

// MetricSamples completes the router's engine series (server.shard.*)
// with its own and with every worker's registry (scraped concurrently
// from /metrics.json), merged by metrics.Merge. One scrape of the router
// answers for the fleet — fleet-wide misses == simulations is readable
// from this one endpoint.
func (d *dispatcher) MetricSamples(engine []metrics.Sample) []metrics.Sample {
	ctx, cancel := context.WithTimeout(context.Background(), d.opts.ScrapeTimeout)
	defer cancel()
	sets := make([][]metrics.Sample, len(d.opts.Workers)+1)
	var wg sync.WaitGroup
	for i, w := range d.opts.Workers {
		wg.Add(1)
		go func(i int, w string) {
			defer wg.Done()
			s, err := scrapeWorker(ctx, d.opts.Client, w)
			if err != nil {
				d.met.scrapeErrors.Add(1)
				return
			}
			sets[i] = s
		}(i, w)
	}
	wg.Wait()
	sets[len(sets)-1] = append(engine, d.met.ownSamples(d.opts.Workers, d.pool.HealthyCount())...)
	return metrics.Merge(sets...)
}
