package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"vca/internal/metrics"
	"vca/internal/metrics/promexport"
)

// Backend is what the HTTP layer needs from a sweep service. Two
// implementations exist: Server (a single daemon executing cells on its
// own worker pool) and shard.Router (a fan-out front end dispatching
// cells to N Servers over HTTP). Both serve the identical client API —
// a client cannot tell a router from a worker — which is what lets
// `vcaserved -route ...` drop in front of an existing deployment
// without touching any client.
type Backend interface {
	// Submit validates and admits one sweep. Errors: ErrQueueFull (429),
	// ErrQueueClosed (503), anything else is a validation failure (400).
	Submit(req SweepRequest) (*Job, error)
	// Job looks up an admitted job by id.
	Job(id string) (*Job, bool)
	// Draining reports whether graceful shutdown has begun (readyz 503).
	Draining() bool
	// MetricSamples returns the full metric surface /metrics renders —
	// for a router, the merged worker registries plus its own counters.
	MetricSamples() []metrics.Sample
	// ObserveLatency records one handler latency observation in
	// microseconds; route is one of RouteSubmit/RouteStatus/RouteResults.
	ObserveLatency(route string, us uint64)
}

// Handler latency routes.
const (
	RouteSubmit  = "submit"
	RouteStatus  = "status"
	RouteResults = "results"
)

// HandlerOptions tunes the shared HTTP layer.
type HandlerOptions struct {
	// StreamWriteTimeout is the per-result write deadline on NDJSON
	// result streams: every line must reach the socket within it, so one
	// stalled reader holds at most one stream goroutine for one deadline
	// (never a cell worker — results land in the job regardless).
	// 0 takes the 1m default; negative disables the deadline.
	StreamWriteTimeout time.Duration
	// StreamBufBytes sizes each result stream's write buffer (0 = 32
	// KiB). The buffer bounds per-stream memory: a stalled reader costs
	// one buffer, not an unbounded queue of encoded results.
	StreamBufBytes int
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. Off by
	// default: the profiling surface is operator-only (docs/SERVICE.md).
	Pprof bool
}

func (o *HandlerOptions) withDefaults() HandlerOptions {
	out := *o
	if out.StreamWriteTimeout == 0 {
		out.StreamWriteTimeout = time.Minute
	}
	if out.StreamBufBytes <= 0 {
		out.StreamBufBytes = 32 << 10
	}
	return out
}

// NewHandler returns the sweep-service routing table over any Backend.
// Server.Handler wraps it for the single daemon; the shard router
// mounts it unchanged, which is what keeps the two wire-compatible.
func NewHandler(b Backend, opts HandlerOptions) http.Handler {
	o := opts.withDefaults()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(b, w, r)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleStatus(b, w, r)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		handleResults(b, &o, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if b.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		promexport.Write(w, "vca", b.MetricSamples())
	})
	// The machine-readable twin of /metrics: the raw sample set as JSON.
	// The shard router scrapes its workers here — merging samples is
	// exact, where re-parsing Prometheus text would be lossy (histogram
	// bucket bounds, kinds, units).
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(b.MetricSamples())
	})
	if o.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// httpError is the uniform JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func handleSubmit(b Backend, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { b.ObserveLatency(RouteSubmit, uint64(time.Since(start).Microseconds())) }()

	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding sweep request: %w", err))
		return
	}
	j, err := b.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrQueueClosed):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{
		"id":          j.ID,
		"cells_total": len(j.Cells),
		"status_url":  "/v1/sweeps/" + j.ID,
		"results_url": "/v1/sweeps/" + j.ID + "/results",
	})
}

func handleStatus(b Backend, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { b.ObserveLatency(RouteStatus, uint64(time.Since(start).Microseconds())) }()

	j, ok := b.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.Status())
}

// handleResults streams the job's cell results as NDJSON in completion
// order: results already landed are sent immediately, then the
// connection stays open until the job finishes or the client goes away.
//
// Lines are written into a bounded buffer under a per-line write
// deadline. The buffer is flushed to the client only when the next
// result has not landed yet, and at the end of the job, so a burst of
// ready results leaves in full buffers rather than one write per line,
// and no line waits in the buffer while the stream waits for the next.
// A reader that stops consuming costs the service exactly one stream
// goroutine, one buffer, and one deadline — never a cell worker.
// Workers append results to the job regardless of who is reading; when
// the write deadline fires the stream goroutine errors out and the
// connection closes, while the job (and every other reader) proceeds
// untouched. The slow-client test pins this.
func handleResults(b Backend, o *HandlerOptions, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { b.ObserveLatency(RouteResults, uint64(time.Since(start).Microseconds())) }()

	j, ok := b.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	bw := bufio.NewWriterSize(w, o.StreamBufBytes)
	le := newLineEncoder()
	for i := 0; ; i++ {
		if !j.Ready(i) {
			// About to wait for the next result: deliver what is written.
			if err := bw.Flush(); err != nil {
				return // client stalled or gone
			}
			rc.Flush()
		}
		res, ok := j.ResultAt(r.Context(), i)
		if !ok {
			bw.Flush()
			// Clear the per-write deadline so a keep-alive connection is
			// reusable after a clean end of stream.
			rc.SetWriteDeadline(time.Time{})
			return
		}
		if o.StreamWriteTimeout > 0 {
			// Arm (or re-arm) the write deadline for this result only: a
			// stream legitimately sits idle between results, so the clock
			// must not run while blocked in ResultAt above.
			rc.SetWriteDeadline(time.Now().Add(o.StreamWriteTimeout))
		}
		line, err := le.line(&res)
		if err != nil {
			return
		}
		if _, err := bw.Write(line); err != nil {
			return // buffer flush failed mid-write: client stalled or gone
		}
	}
}
