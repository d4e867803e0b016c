package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"vca/internal/metrics/promexport"
)

// streamBufBytes sizes each result stream's write buffer. The buffer
// bounds per-stream memory: a stalled reader costs one buffer, not an
// unbounded queue of encoded results.
const streamBufBytes = 32 << 10

// Handler returns the sweep-service routing table. A worker and the
// shard router serve it alike — a client cannot tell a router from a
// worker — which is what lets `vcaserved -route ...` drop in front of an
// existing deployment without touching any client.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		promexport.Write(w, "vca", s.MetricSamples())
	})
	// The machine-readable twin of /metrics: the raw sample set as JSON.
	// The shard router scrapes its workers here — merging samples is
	// exact, where re-parsing Prometheus text would be lossy (histogram
	// bucket bounds, kinds, units).
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.MetricSamples())
	})
	if s.opts.EnablePprof {
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

// decodeSweepRequest reads a POST /v1/sweeps body: one JSON object
// with no unknown fields. FuzzSweepRequest drives it as handleSubmit
// does.
func decodeSweepRequest(body io.Reader) (SweepRequest, error) {
	var req SweepRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding sweep request: %w", err)
	}
	return req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	defer s.met.latSubmit.since(time.Now())

	req, err := decodeSweepRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.Submit(req)
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

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	defer s.met.latStatus.since(time.Now())

	j, ok := s.Job(r.PathValue("id"))
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
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	defer s.met.latResults.since(time.Now())

	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	bw := bufio.NewWriterSize(w, streamBufBytes)
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
		if s.opts.StreamWriteTimeout > 0 {
			// Arm (or re-arm) the write deadline for this result only: a
			// stream legitimately sits idle between results, so the clock
			// must not run while blocked in ResultAt above.
			rc.SetWriteDeadline(time.Now().Add(s.opts.StreamWriteTimeout))
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
