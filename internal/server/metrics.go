package server

import (
	"sync/atomic"
	"time"

	"vca/internal/metrics"
)

// AtomicHistogram is the concurrency-safe sibling of metrics.Histogram:
// same power-of-two bucket scheme, atomic increments, so HTTP handler
// goroutines can observe latencies while the /metrics handler reads a
// consistent-enough snapshot. (internal/metrics proper stays
// single-threaded by design — a simulator owns its registry; the
// service is the component with true concurrency.)
type AtomicHistogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [metrics.NumBuckets]atomic.Uint64
}

func (h *AtomicHistogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[metrics.BucketOf(v)].Add(1)
}

// since observes the microseconds elapsed from start.
func (h *AtomicHistogram) since(start time.Time) {
	h.Observe(uint64(time.Since(start).Microseconds()))
}

// Sample renders the histogram as a metrics.Sample, reusing the
// Snapshot conventions (non-empty buckets only, [lo,hi) bounds).
func (h *AtomicHistogram) Sample(name, unit, desc string) metrics.Sample {
	s := metrics.Sample{Name: name, Kind: "histogram", Unit: unit, Desc: desc}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		lo, hi := metrics.BucketBounds(i)
		s.Buckets = append(s.Buckets, metrics.Bucket{Lo: lo, Hi: hi, Count: n})
	}
	return s
}

// serviceMetrics is the job engine's counter surface, everything the
// ops runbook (docs/SERVICE.md) alerts on. All fields are atomics;
// snapshot() renders them as metrics.Samples under the engine's prefix
// (server.* on a worker, server.shard.* on the router) for the
// Prometheus exporter, ahead of the executor's own series.
type serviceMetrics struct {
	jobsSubmitted atomic.Uint64 // sweeps accepted (202)
	jobsRejected  atomic.Uint64 // sweeps refused: queue full, draining, validation
	jobsDone      atomic.Uint64 // sweeps whose last cell finished
	jobsFailed    atomic.Uint64 // sweeps finished with >= 1 failed cell
	jobsRunning   atomic.Int64  // sweeps admitted and not yet finished (gauge)

	cellsSubmitted atomic.Uint64 // cells queued
	cellsDone      atomic.Uint64 // cells finished, any outcome
	cellsFailed    atomic.Uint64 // cells finished in error (timeout included)
	cellsInvalid   atomic.Uint64 // cells skipped: arch can't operate at that size
	cellsRunning   atomic.Int64  // cells currently executing (gauge)

	latSubmit  AtomicHistogram // POST /v1/sweeps handler latency (µs)
	latStatus  AtomicHistogram // GET /v1/sweeps/{id} handler latency (µs)
	latResults AtomicHistogram // GET .../results total stream time (µs)
	latCell    AtomicHistogram // per-cell wall time, queue wait excluded (µs)
}

// snapshot renders the engine metrics as prefix.*; queueDepth and
// queueInvariantFailures are sampled by the caller (the queue owns
// them).
func (m *serviceMetrics) snapshot(prefix string, queueDepth int, queueInvariantFailures uint64) []metrics.Sample {
	ctr := func(name string, v uint64, desc string) metrics.Sample {
		return metrics.Sample{Name: prefix + name, Kind: "counter", Unit: "events", Desc: desc, Value: v}
	}
	gauge := func(name string, v int64, desc string) metrics.Sample {
		if v < 0 {
			v = 0
		}
		return metrics.Sample{Name: prefix + name, Kind: "gauge", Unit: "events", Desc: desc, Value: uint64(v)}
	}
	return []metrics.Sample{
		ctr(".jobs_submitted", m.jobsSubmitted.Load(), "sweep jobs accepted"),
		ctr(".jobs_rejected", m.jobsRejected.Load(), "sweep submissions refused (queue full, draining, or invalid)"),
		ctr(".jobs_done", m.jobsDone.Load(), "sweep jobs finished (all cells done)"),
		ctr(".jobs_failed", m.jobsFailed.Load(), "sweep jobs finished with at least one failed cell"),
		gauge(".jobs_running", m.jobsRunning.Load(), "sweep jobs admitted and not yet finished"),
		ctr(".cells_submitted", m.cellsSubmitted.Load(), "sweep cells queued"),
		ctr(".cells_done", m.cellsDone.Load(), "sweep cells finished (any outcome)"),
		ctr(".cells_failed", m.cellsFailed.Load(), "sweep cells that finished in error"),
		ctr(".cells_invalid", m.cellsInvalid.Load(), "sweep cells skipped because the architecture cannot operate at that size"),
		gauge(".cells_running", m.cellsRunning.Load(), "sweep cells currently executing"),
		gauge(".queue_depth", int64(queueDepth), "cells waiting in the work queue"),
		ctr(".queue_invariant_failures", queueInvariantFailures, "queue size/ring divergences repaired in place (each one is a bug; alert on any increase)"),
		m.latSubmit.Sample(prefix+".latency.submit_us", "us", "POST /v1/sweeps handler latency"),
		m.latStatus.Sample(prefix+".latency.status_us", "us", "GET /v1/sweeps/{id} handler latency"),
		m.latResults.Sample(prefix+".latency.results_us", "us", "GET /v1/sweeps/{id}/results stream duration"),
		m.latCell.Sample(prefix+".latency.cell_us", "us", "per-cell execution wall time (queue wait excluded)"),
	}
}
