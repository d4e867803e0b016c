// Package server implements the simulation sweep service behind
// cmd/vcaserved: an HTTP JSON job API over the memoized simulation
// infrastructure (internal/simcache, internal/experiments), turning the
// experiment harness into a long-running daemon that many clients share.
//
// # API surface
//
//	POST /v1/sweeps               submit a config-space sweep (202 + job id)
//	GET  /v1/sweeps/{id}          poll job status
//	GET  /v1/sweeps/{id}/results  stream per-cell results as NDJSON as they land
//	GET  /healthz                 liveness (process up)
//	GET  /readyz                  readiness (503 while draining)
//	GET  /metrics                 Prometheus text format (internal/metrics/promexport)
//
// A sweep expands into independent cells (one simulation each) that
// enter a bounded work queue with strict priority classes and
// round-robin fairness across tenants (queue.go). Workers execute cells
// against a shared content-addressed result store with singleflight
// dedup (simcache.Cache.Run): N concurrent clients asking for
// the same (config, program) pay for exactly one simulation. Results
// stream back the moment each cell lands, carrying the run's full
// event-counter map — the CounterPoint-style surface downstream
// validation consumes (PAPERS.md).
//
// The job engine — admission, queue, job table, result recording,
// drain and the service metrics — is the same for both roles a daemon
// can play. Only the Executor that answers a popped cell differs: New
// simulates it locally, and the shard router (internal/server/shard)
// passes NewWithExecutor one that dispatches it to a worker.
//
// The server drains gracefully: Drain stops admission (readyz turns
// 503, submissions get 503, the queue closes), lets queued and running
// cells finish within the drain budget, then cancels stragglers. Every
// operational knob, metric series, and alerting rule is documented in
// docs/SERVICE.md; the architecture and its design decisions are
// DESIGN.md §13 and §15.
package server

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vca/internal/metrics"
	"vca/internal/simcache"
)

// Options configures a Server. Zero values take the documented
// defaults, so Options{} is a runnable development configuration.
type Options struct {
	// Cache is the shared result store. nil disables memoization and
	// singleflight (every cell simulates) — not recommended for serving.
	Cache *simcache.Cache
	// Workers is the number of cell-executing goroutines
	// (0 = GOMAXPROCS).
	Workers int
	// QueueLimit bounds the number of queued cells across all tenants
	// (0 = 4096). Submissions that would exceed it get 429.
	QueueLimit int
	// MaxCellsPerSweep bounds a single sweep's expansion
	// (0 = DefaultMaxCellsPerSweep). Larger submissions get 400.
	MaxCellsPerSweep int
	// JobTimeout is the default per-job wall-time budget, overridable
	// per request via timeout_sec (0 = 10m).
	JobTimeout time.Duration
	// StreamWriteTimeout is the per-result write deadline on NDJSON
	// result streams: every line must reach the socket within it, so one
	// stalled reader holds at most one stream goroutine for one deadline
	// (never a cell worker — results land in the job regardless).
	// 0 takes the 1m default; negative disables the deadline.
	StreamWriteTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default; operator-only, see docs/SERVICE.md).
	EnablePprof bool
}

// DefaultMaxCellsPerSweep is the per-sweep expansion limit a zero
// MaxCellsPerSweep takes, on a worker and on the shard router alike.
const DefaultMaxCellsPerSweep = 1024

func (o *Options) withDefaults() Options {
	out := *o
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.QueueLimit <= 0 {
		out.QueueLimit = 4096
	}
	if out.MaxCellsPerSweep <= 0 {
		out.MaxCellsPerSweep = DefaultMaxCellsPerSweep
	}
	if out.JobTimeout <= 0 {
		out.JobTimeout = 10 * time.Minute
	}
	if out.StreamWriteTimeout == 0 {
		out.StreamWriteTimeout = time.Minute
	}
	return out
}

// Executor answers the cells a Server's workers pop off its queue.
type Executor interface {
	// Run answers cell c of job j. ctx carries the job's deadline and is
	// cancelled by a forced drain; Run must return soon after it ends.
	// Every failure is an answer: it goes into CellResult.Error.
	Run(ctx context.Context, j *Job, c Cell) CellResult
	// MetricSamples completes the engine's own series into everything
	// /metrics renders.
	MetricSamples(engine []metrics.Sample) []metrics.Sample
}

// local is the worker role's Executor: it answers each cell against
// the shared result store, as RunCell does. A cell that needs no
// simulation and no wait — a hit in the store's view, a No Baseline
// cell, a build error — is answered on the calling worker goroutine.
// A cell the store must answer runs on a goroutine of its own: if it
// outlives its job's deadline it is reported failed while that
// goroutine drains on its own, bounded by Config.MaxCycles, and its
// result still lands in the store for the next caller.
type local struct{ cache *simcache.Cache }

func (l local) Run(ctx context.Context, _ *Job, c Cell) CellResult {
	out, b, done := replayCell(l.cache, c)
	if done {
		return out
	}
	start := time.Now()
	stored := make(chan CellResult, 1)
	// out goes by copy, so a view hit's out never escapes to the heap.
	go func(out CellResult) { stored <- storeCell(l.cache, out, b) }(out)
	select {
	case res := <-stored:
		return res
	case <-ctx.Done():
		return CellResult{Cell: c, Error: fmt.Sprintf("cell abandoned after %v: %v", time.Since(start).Round(time.Millisecond), ctx.Err())}
	}
}

// MetricSamples adds the shared result store's counters.
func (l local) MetricSamples(engine []metrics.Sample) []metrics.Sample {
	if l.cache != nil {
		engine = append(engine, l.cache.MetricsRegistry().Snapshot()...)
	}
	return engine
}

// Server is the sweep service's job engine: queue, workers, job table,
// metrics, and an Executor that answers cells. Create with New (or
// NewWithExecutor), mount Handler on an http.Server, and call Drain on
// shutdown. All methods are safe for concurrent use.
type Server struct {
	opts   Options
	exec   Executor
	prefix string // metric namespace of the engine's own series
	queue  *Queue
	met    serviceMetrics

	baseCtx    context.Context // parent of every job context
	cancelBase context.CancelFunc
	draining   atomic.Bool

	wg  sync.WaitGroup // worker goroutines
	seq atomic.Uint64  // job id sequence

	mu   sync.Mutex
	jobs map[string]*Job
}

// New builds a worker: a server that simulates cells on its own worker
// pool against opts.Cache, with its series under server.*.
func New(opts Options) *Server {
	return NewWithExecutor(opts, "server", local{cache: opts.Cache})
}

// NewWithExecutor builds a server whose workers hand each popped cell
// to exec, names its own metric series prefix.*, and starts its worker
// pool. opts.Cache is not consulted: exec owns execution.
func NewWithExecutor(opts Options, prefix string, exec Executor) *Server {
	s := newServer(opts, prefix, exec)
	s.start()
	return s
}

func newServer(opts Options, prefix string, exec Executor) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:   o,
		exec:   exec,
		prefix: prefix,
		queue:  NewQueue(o.QueueLimit),
		jobs:   make(map[string]*Job),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	return s
}

func (s *Server) start() {
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// worker pulls cells in scheduling order and executes them until the
// queue closes and drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		it, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runItem(it)
	}
}

// runItem answers one cell through the executor under the job's
// deadline and records the result. A cell whose job deadline already
// expired (or whose server is force-draining) fails without executing.
func (s *Server) runItem(it workItem) {
	j := it.job
	j.markStarted()
	cell := j.Cells[it.cell]

	var res CellResult
	if err := j.ctx.Err(); err != nil {
		res = CellResult{Cell: cell, Error: fmt.Sprintf("cell not started: %v", err)}
	} else {
		s.met.cellsRunning.Add(1)
		start := time.Now()
		res = s.exec.Run(j.ctx, j, cell)
		s.met.latCell.since(start)
		s.met.cellsRunning.Add(-1)
	}

	s.recordResult(j, res)
}

// recordResult appends one finished cell to its job and keeps the
// service counters consistent. It is shared by the worker path and the
// drain-time reconciliation of lost cells, so a reconciled failure is
// indistinguishable from a worker-recorded one on the metric surface.
func (s *Server) recordResult(j *Job, res CellResult) {
	s.met.cellsDone.Add(1)
	if res.Error != "" {
		s.met.cellsFailed.Add(1)
	} else if !res.Valid {
		s.met.cellsInvalid.Add(1)
	}
	if last := j.appendResult(res); last {
		s.met.jobsRunning.Add(-1)
		s.met.jobsDone.Add(1)
		if j.Status().CellsFailed > 0 {
			s.met.jobsFailed.Add(1)
		}
	}
}

// Submit validates and admits a sweep, returning the queued job. The
// error is ErrQueueFull/ErrQueueClosed for capacity refusals, or a
// validation error otherwise.
func (s *Server) Submit(req SweepRequest) (*Job, error) {
	if s.draining.Load() {
		s.met.jobsRejected.Add(1)
		return nil, ErrQueueClosed
	}
	prio, err := ParsePriority(req.Priority)
	if err != nil {
		s.met.jobsRejected.Add(1)
		return nil, err
	}
	cells, err := ExpandCells(&req, s.opts.MaxCellsPerSweep)
	if err != nil {
		s.met.jobsRejected.Add(1)
		return nil, err
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	timeout := s.opts.JobTimeout
	if req.TimeoutSec > 0 {
		timeout = time.Duration(req.TimeoutSec) * time.Second
	}
	id := fmt.Sprintf("sw-%06d", s.seq.Add(1))
	j := newJob(id, req, prio, cells, s.baseCtx, timeout)

	indices := make([]int, len(cells))
	for i := range indices {
		indices[i] = i
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	if err := s.queue.Push(j, indices); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		j.cancel()
		s.met.jobsRejected.Add(1)
		return nil, err
	}
	s.met.jobsSubmitted.Add(1)
	s.met.jobsRunning.Add(1)
	s.met.cellsSubmitted.Add(uint64(len(cells)))
	return j, nil
}

// Job looks up an admitted job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Drain performs the graceful-shutdown sequence: stop admission, close
// the queue, and wait for queued + running cells to finish. If ctx
// expires first, every outstanding job context is cancelled so workers
// abandon their cells and exit; Drain then waits for the workers
// themselves. Returns nil on a clean drain, ctx.Err() when work was
// abandoned.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		s.cancelBase()
	case <-ctx.Done():
		s.cancelBase() // abandon in-flight cells; workers record errors and exit
		<-done
		err = ctx.Err()
	}
	s.reconcileLostCells()
	return err
}

// reconcileLostCells answers every admitted cell that no worker ever
// recorded a result for. In normal operation there are none: even
// abandoned and expired cells get explicit error results. A cell can
// only vanish through queue-accounting corruption (see
// Queue.InvariantFailure), and the contract is that its job must still
// finish — with a structured error naming the divergence — rather than
// hang its streaming readers and hold its running-jobs slot forever.
func (s *Server) reconcileLostCells() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs { //lint:maporder reconciliation order does not matter: each job's missing cells are failed independently, in index order
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		for _, ci := range j.missingCells() {
			msg := "cell lost without a result (queue accounting divergence)"
			if inv := s.queue.InvariantFailure(); inv != nil {
				msg = fmt.Sprintf("cell lost without a result: %v", inv)
			}
			s.recordResult(j, CellResult{Cell: j.Cells[ci], Error: msg})
		}
	}
}

// Draining reports whether Drain has begun (readyz state).
func (s *Server) Draining() bool { return s.draining.Load() }

// MetricSamples returns everything /metrics renders: the engine's
// series under its prefix, completed by the executor (a worker adds its
// result store's counters, the router its fleet's). The full name
// mapping lives in docs/SERVICE.md and docs/OBSERVABILITY.md.
func (s *Server) MetricSamples() []metrics.Sample {
	return s.exec.MetricSamples(s.met.snapshot(s.prefix, s.queue.Depth(), s.queue.InvariantFailures()))
}
