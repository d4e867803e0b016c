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
	// (0 = 16). Beyond it, cells queue in the router rather than piling
	// connections onto a busy worker.
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
	// StreamWriteTimeout and EnablePprof pass through to the HTTP
	// layer; see server.HandlerOptions.
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
	if out.MaxCellsPerSweep <= 0 {
		out.MaxCellsPerSweep = server.DefaultMaxCellsPerSweep
	}
	if out.JobTimeout <= 0 {
		out.JobTimeout = 10 * time.Minute
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
// cache-affine cell routing (see the package comment). It implements
// server.Backend, so server.NewHandler serves the identical client API
// over it that a single worker serves.
type Router struct {
	opts Options
	ring *Ring
	pool *workerPool
	met  routerMetrics

	baseCtx    context.Context // parent of every job context
	cancelBase context.CancelFunc
	draining   atomic.Bool

	wg  sync.WaitGroup // per-cell dispatcher goroutines
	seq atomic.Uint64  // job id sequence

	mu   sync.Mutex
	jobs map[string]*server.Job
}

// New builds a router over the given workers and starts its health
// prober. Callers own shutdown via Drain.
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
	r := &Router{
		opts: o,
		ring: NewRing(workers, o.VNodes),
		pool: newWorkerPool(workers, o.Client, o.Inflight, o.HealthInterval),
		jobs: make(map[string]*server.Job),
	}
	r.met.perWorker = make([]atomic.Uint64, len(workers))
	r.baseCtx, r.cancelBase = context.WithCancel(context.Background())
	return r, nil
}

// Submit implements server.Backend: validate, expand, and dispatch
// every cell to its ring owner. Validation is identical to a worker's —
// the router rejects exactly what a single daemon would reject, so
// clients see one API regardless of topology.
func (r *Router) Submit(req server.SweepRequest) (*server.Job, error) {
	if r.draining.Load() {
		r.met.jobsRejected.Add(1)
		return nil, server.ErrQueueClosed
	}
	prio, err := server.ParsePriority(req.Priority)
	if err != nil {
		r.met.jobsRejected.Add(1)
		return nil, err
	}
	cells, err := server.ExpandCells(&req, r.opts.MaxCellsPerSweep)
	if err != nil {
		r.met.jobsRejected.Add(1)
		return nil, err
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	timeout := r.opts.JobTimeout
	if req.TimeoutSec > 0 {
		timeout = time.Duration(req.TimeoutSec) * time.Second
	}
	id := fmt.Sprintf("sw-%06d", r.seq.Add(1))
	j := server.NewJob(id, req, prio, cells, r.baseCtx, timeout)
	r.mu.Lock()
	r.jobs[id] = j
	r.mu.Unlock()
	r.met.jobsSubmitted.Add(1)
	r.met.jobsRunning.Add(1)
	// Cells dispatch immediately — the router has no queue of its own
	// (worker queues provide the priority classes and tenant fairness),
	// so the job is running from admission.
	j.MarkStarted()
	r.wg.Add(len(cells))
	for i := range cells {
		go r.dispatchCell(j, cells[i])
	}
	return j, nil
}

// Job implements server.Backend.
func (r *Router) Job(id string) (*server.Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Draining implements server.Backend.
func (r *Router) Draining() bool { return r.draining.Load() }

// Handler returns the router's HTTP routing table — the same sweep API
// a worker serves, over this router as its Backend.
func (r *Router) Handler() http.Handler {
	return server.NewHandler(r, server.HandlerOptions{
		StreamWriteTimeout: r.opts.StreamWriteTimeout,
		Pprof:              r.opts.EnablePprof,
	})
}

// record lands one answered cell in its job, exactly once per admitted
// cell — every dispatchCell return path funnels through here.
func (r *Router) record(j *server.Job, res server.CellResult) {
	if last := j.AppendResult(res); last {
		r.met.jobsRunning.Add(-1)
		r.met.jobsDone.Add(1)
	}
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

// dispatchCell routes one cell: derive its content address, walk the
// ring from its owner, and record exactly one result whatever happens.
func (r *Router) dispatchCell(j *server.Job, cell server.Cell) {
	defer r.wg.Done()
	key, ok, err := server.CellKey(cell)
	if err != nil {
		// A build failure needs no worker: answer it locally with the
		// exact error RunCell would produce.
		r.met.cellsLocal.Add(1)
		r.record(j, server.CellResult{Cell: cell, Error: err.Error()})
		return
	}
	if !ok {
		// "No Baseline" region: the architecture cannot operate at this
		// size. A well-formed Valid=false answer, no simulation, no key.
		r.met.cellsLocal.Add(1)
		r.record(j, server.CellResult{Cell: cell})
		return
	}

	order := r.ring.Successors(key)
	candidates := make([]string, 0, len(order))
	for _, w := range order {
		if r.pool.Healthy(w) {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		candidates = order // a fully-marked-down fleet still gets one pass
	}
	var lastErr error
	for wi, w := range candidates {
		if err := j.Context().Err(); err != nil {
			r.met.cellsFailed.Add(1)
			r.record(j, server.CellResult{Cell: cell, Error: fmt.Sprintf("cell not started: %v", err)})
			return
		}
		if wi > 0 {
			r.met.failovers.Add(1)
		}
		res, err := r.tryWorker(j, w, cell)
		if err == nil {
			if w != order[0] {
				r.met.remapped.Add(1)
			}
			r.met.cellsRouted.Add(1)
			r.met.perWorker[r.pool.index[w]].Add(1)
			r.record(j, res)
			return
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			r.met.cellsFailed.Add(1)
			r.record(j, server.CellResult{Cell: cell, Error: err.Error()})
			return
		}
		if !errors.Is(err, errWorkerBusy) {
			r.pool.MarkDown(w)
		}
		lastErr = err
	}
	r.met.cellsFailed.Add(1)
	r.record(j, server.CellResult{Cell: cell, Error: fmt.Sprintf("cell undeliverable: every worker failed, last: %v", lastErr)})
}

// tryWorker runs the per-worker retry loop: up to RetryAttempts
// dispatches with exponential backoff, under the worker's in-flight
// slot. A draining worker short-circuits to failover.
func (r *Router) tryWorker(j *server.Job, worker string, cell server.Cell) (server.CellResult, error) {
	ctx := j.Context()
	if err := r.pool.Acquire(ctx, worker); err != nil {
		return server.CellResult{}, err // job deadline: dispatchCell answers it
	}
	defer r.pool.Release(worker)
	r.met.cellsInflight.Add(1)
	defer r.met.cellsInflight.Add(-1)

	var lastErr error
	for attempt := 0; attempt < r.opts.RetryAttempts; attempt++ {
		if attempt > 0 {
			r.met.retries.Add(1)
			if !sleepCtx(ctx, r.opts.RetryBase<<(attempt-1)) {
				return server.CellResult{}, ctx.Err()
			}
		}
		start := time.Now()
		res, err := r.dispatchOnce(ctx, worker, j, cell)
		if err == nil {
			r.met.latDispatch.Observe(uint64(time.Since(start).Microseconds()))
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
// byte-identical per cell to a single daemon's.
func (r *Router) dispatchOnce(ctx context.Context, worker string, j *server.Job, cell server.Cell) (server.CellResult, error) {
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
	resp, err := r.opts.Client.Do(req)
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
	rresp, err := r.opts.Client.Do(rreq)
	if err != nil {
		return zero, fmt.Errorf("streaming from %s: %w", worker, err)
	}
	defer drainBody(rresp)
	if rresp.StatusCode != http.StatusOK {
		return zero, fmt.Errorf("worker %s results stream: status %d", worker, rresp.StatusCode)
	}
	var res server.CellResult
	if err := json.NewDecoder(rresp.Body).Decode(&res); err != nil {
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

// MetricSamples implements server.Backend: every worker's registry
// (scraped concurrently from /metrics.json) merged by metrics.Merge,
// plus the router's own server.shard.* series. One scrape of the router
// answers for the fleet — fleet-wide misses == simulations is readable
// from this one endpoint.
func (r *Router) MetricSamples() []metrics.Sample {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.ScrapeTimeout)
	defer cancel()
	sets := make([][]metrics.Sample, len(r.opts.Workers)+1)
	var wg sync.WaitGroup
	for i, w := range r.opts.Workers {
		wg.Add(1)
		go func(i int, w string) {
			defer wg.Done()
			s, err := scrapeWorker(ctx, r.opts.Client, w)
			if err != nil {
				r.met.scrapeErrors.Add(1)
				return
			}
			sets[i] = s
		}(i, w)
	}
	wg.Wait()
	sets[len(sets)-1] = r.met.ownSamples(r.opts.Workers, r.pool.HealthyCount())
	return metrics.Merge(sets...)
}

// ObserveLatency implements server.Backend; router handler latencies
// land under server.shard.latency.* so they never merge-sum with the
// aggregated worker server.latency.* series.
func (r *Router) ObserveLatency(route string, us uint64) {
	switch route {
	case server.RouteSubmit:
		r.met.latSubmit.Observe(us)
	case server.RouteStatus:
		r.met.latStatus.Observe(us)
	case server.RouteResults:
		r.met.latResults.Observe(us)
	}
}

// Drain performs graceful shutdown: stop admission (readyz turns 503),
// let in-flight cells finish, and if ctx expires first cancel every job
// context so dispatchers record errors and exit. Every admitted cell is
// answered either way. Returns nil on a clean drain, ctx.Err() when
// work was abandoned.
func (r *Router) Drain(ctx context.Context) error {
	r.draining.Store(true)
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		r.cancelBase()
	case <-ctx.Done():
		r.cancelBase() // abandon in-flight dispatches; they record errors
		<-done
		err = ctx.Err()
	}
	r.pool.Close()
	return err
}
