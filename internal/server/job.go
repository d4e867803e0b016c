package server

import (
	"context"
	"sync"
	"time"
)

// JobState is the lifecycle of a sweep job as reported by the status
// endpoint. A job is "queued" until its first cell dispatches,
// "running" while any cell is queued or in flight, and "done" once
// every cell has an answer (failed cells included — per-cell errors are
// results, not job states; CellsFailed counts them).
type JobState string

// Job states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
)

// Job is one admitted sweep: its cells, their results as they land, and
// the bookkeeping the status and streaming endpoints read. Results
// append in completion order; every appended result wakes the streaming
// readers (broadcast on cond).
type Job struct {
	ID       string
	Tenant   string
	Priority Priority
	Req      SweepRequest
	Cells    []Cell

	// ctx carries the per-job timeout: once it expires, not-yet-started
	// cells fail immediately with the context error instead of
	// simulating. cancel releases the timer when the job finishes.
	ctx    context.Context
	cancel context.CancelFunc

	created time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	started  bool
	finished time.Time
	results  []CellResult // completion order
	failed   int
}

func newJob(id string, req SweepRequest, prio Priority, cells []Cell, base context.Context, timeout time.Duration) *Job {
	ctx, cancel := context.WithTimeout(base, timeout)
	j := &Job{
		ID:       id,
		Tenant:   req.Tenant,
		Priority: prio,
		Req:      req,
		Cells:    cells,
		ctx:      ctx,
		cancel:   cancel,
		created:  time.Now(),
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// markStarted flips the job to running on its first dispatched cell.
func (j *Job) markStarted() {
	j.mu.Lock()
	j.started = true
	j.mu.Unlock()
}

// appendResult records one finished cell and wakes streamers; it
// returns true when this was the job's last cell. Server.recordResult
// lands every answer here, exactly once per admitted cell.
func (j *Job) appendResult(r CellResult) (last bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results = append(j.results, r)
	if r.Error != "" {
		j.failed++
	}
	last = len(j.results) == len(j.Cells)
	if last {
		j.finished = time.Now()
		j.cancel() // release the timeout timer
	}
	j.cond.Broadcast()
	return last
}

// Ready reports whether ResultAt(ctx, i) would return without waiting:
// result i has landed or the job is done. The results stream flushes
// what it has written only when the next result is not ready.
func (j *Job) Ready(i int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return i < len(j.results) || len(j.results) == len(j.Cells)
}

// ResultAt blocks until result index i exists, the job is done, or ctx
// is cancelled. ok=false means no more results will come (stream done)
// or the reader gave up.
func (j *Job) ResultAt(ctx context.Context, i int) (CellResult, bool) {
	j.mu.Lock()
	if i < len(j.results) {
		r := j.results[i]
		j.mu.Unlock()
		return r, true
	}
	j.mu.Unlock()

	// A goroutine bridges ctx cancellation into the cond so a stuck
	// reader whose client disconnected does not leak.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if i < len(j.results) {
			return j.results[i], true
		}
		if len(j.results) == len(j.Cells) || ctx.Err() != nil {
			return CellResult{}, false
		}
		j.cond.Wait()
	}
}

// missingCells returns, in ascending order, the indices of cells that
// have no recorded result. Non-empty only when cells were lost (queue
// corruption); see Server.reconcileLostCells.
func (j *Job) missingCells() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.results) >= len(j.Cells) {
		return nil
	}
	have := make([]bool, len(j.Cells))
	for i := range j.results {
		if ix := j.results[i].Index; ix >= 0 && ix < len(have) {
			have[ix] = true
		}
	}
	missing := make([]int, 0, len(j.Cells)-len(j.results))
	for i, h := range have {
		if !h {
			missing = append(missing, i)
		}
	}
	return missing
}

// Status is the GET /v1/sweeps/{id} body.
type Status struct {
	ID          string   `json:"id"`
	Tenant      string   `json:"tenant"`
	Priority    string   `json:"priority"`
	State       JobState `json:"state"`
	CellsTotal  int      `json:"cells_total"`
	CellsDone   int      `json:"cells_done"`
	CellsFailed int      `json:"cells_failed"`
	Created     string   `json:"created"` // RFC 3339
	ElapsedSec  float64  `json:"elapsed_sec"`
}

// Status snapshots the job for the status endpoint.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID:          j.ID,
		Tenant:      j.Tenant,
		Priority:    j.Priority.String(),
		CellsTotal:  len(j.Cells),
		CellsDone:   len(j.results),
		CellsFailed: j.failed,
		Created:     j.created.UTC().Format(time.RFC3339),
	}
	switch {
	case len(j.results) == len(j.Cells):
		s.State = StateDone
		s.ElapsedSec = j.finished.Sub(j.created).Seconds()
	case j.started:
		s.State = StateRunning
		s.ElapsedSec = time.Since(j.created).Seconds()
	default:
		s.State = StateQueued
		s.ElapsedSec = time.Since(j.created).Seconds()
	}
	return s
}
