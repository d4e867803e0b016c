package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"vca/internal/metrics"
	"vca/internal/server"
)

// routerMetrics is the dispatcher's own counter surface, exported
// under server.shard.* next to the router's engine series (jobs, cells,
// queue, handler latencies: server.Server under the server.shard
// prefix) and the aggregated worker registries. Routed cells are also
// counted per shard (server.shard.routed.w<i>), which is what lets an
// operator see affinity working: re-submitting a sweep moves no
// per-shard counter differently than the first submission did.
// docs/OBSERVABILITY.md carries the full table.
type routerMetrics struct {
	cellsRouted atomic.Uint64 // cells dispatched to some worker
	cellsLocal  atomic.Uint64 // cells answered locally (No-Baseline / build errors)

	retries   atomic.Uint64 // re-attempts against the same worker (backoff path)
	failovers atomic.Uint64 // cells moved to a ring successor after a worker failed
	remapped  atomic.Uint64 // cells routed off their primary shard (owner unhealthy)

	scrapeErrors atomic.Uint64 // worker /metrics.json fetches that failed

	perWorker []atomic.Uint64 // routed cells per shard, index-aligned with workers

	latDispatch server.AtomicHistogram // per-cell dispatch round trip incl. worker queue+sim (µs)
}

// ownSamples renders the dispatcher's series. workers and healthy are
// sampled by the caller (the pool owns them).
func (m *routerMetrics) ownSamples(workers []string, healthy int) []metrics.Sample {
	ctr := func(name string, v uint64, desc string) metrics.Sample {
		return metrics.Sample{Name: name, Kind: "counter", Unit: "events", Desc: desc, Value: v}
	}
	gauge := func(name string, v int, desc string) metrics.Sample {
		return metrics.Sample{Name: name, Kind: "gauge", Unit: "events", Desc: desc, Value: uint64(v)}
	}
	out := []metrics.Sample{
		ctr("server.shard.cells_routed", m.cellsRouted.Load(), "cells dispatched to a worker"),
		ctr("server.shard.cells_local", m.cellsLocal.Load(), "cells answered by the router without dispatch (No-Baseline regions and build errors)"),
		ctr("server.shard.retries", m.retries.Load(), "dispatch re-attempts against the same worker (exponential backoff)"),
		ctr("server.shard.failovers", m.failovers.Load(), "cells re-dispatched to a ring successor after their worker failed"),
		ctr("server.shard.remapped", m.remapped.Load(), "cells routed off their primary shard because its worker was unhealthy (remap fraction = remapped / cells_routed)"),
		ctr("server.shard.scrape_errors", m.scrapeErrors.Load(), "worker /metrics.json aggregation fetches that failed"),
		gauge("server.shard.workers", len(workers), "configured workers"),
		gauge("server.shard.workers_healthy", healthy, "workers currently believed dispatchable"),
	}
	for i := range m.perWorker {
		out = append(out, ctr(fmt.Sprintf("server.shard.routed.w%d", i), m.perWorker[i].Load(),
			fmt.Sprintf("cells routed to shard w%d (%s)", i, workers[i])))
	}
	return append(out, m.latDispatch.Sample("server.shard.latency.dispatch_us", "us", "per-cell dispatch round trip (worker queue wait and simulation included)"))
}

// scrapeWorker fetches one worker's raw metric samples from its
// /metrics.json endpoint — the lossless form metrics.Merge aggregates
// (re-parsing Prometheus text would drop bucket bounds and kinds).
func scrapeWorker(ctx context.Context, client *http.Client, worker string) ([]metrics.Sample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/metrics.json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics.json: status %d", worker, resp.StatusCode)
	}
	var samples []metrics.Sample
	if err := json.NewDecoder(resp.Body).Decode(&samples); err != nil {
		return nil, fmt.Errorf("decoding %s/metrics.json: %w", worker, err)
	}
	return samples, nil
}
