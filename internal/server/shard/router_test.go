package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vca/internal/metrics"
	"vca/internal/server"
	"vca/internal/simcache"
)

// newWorker builds one real vcaserved backend (own cache, own httptest
// listener) — the router's tests shard over genuine workers, not stubs,
// so every assertion covers the actual wire protocol.
func newWorker(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	cache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Options{Workers: 2, Cache: cache})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func newTestRouter(t *testing.T, opts Options) (*Router, *httptest.Server) {
	t.Helper()
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		r.Drain(ctx)
	})
	return r, ts
}

func submitSweep(t *testing.T, url string, req server.SweepRequest) (id string, cells int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %v", resp.StatusCode, e)
	}
	var out struct {
		ID         string `json:"id"`
		CellsTotal int    `json:"cells_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID, out.CellsTotal
}

func streamResults(t *testing.T, url, id string) []server.CellResult {
	t.Helper()
	resp, err := http.Get(url + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d", resp.StatusCode)
	}
	var out []server.CellResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var r server.CellResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func promValue(t *testing.T, text, series string) (uint64, bool) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		var v uint64
		for _, c := range rest {
			if c < '0' || c > '9' {
				break
			}
			v = v*10 + uint64(c-'0')
		}
		return v, true
	}
	return 0, false
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	return b.String()
}

// TestRouterByteIdentity is the topology-transparency gate: the same
// sweep through a 2-worker router must stream back byte-identical cells
// (as JSON) to the direct in-process path — including the "No Baseline"
// cell the router answers locally without touching any worker.
func TestRouterByteIdentity(t *testing.T) {
	req := server.SweepRequest{
		Tenant:     "e2e",
		Benchmarks: []string{"crafty"},
		Archs:      []string{"baseline", "vca-windowed"},
		PhysRegs:   []int{64, 256}, // baseline@64 is a "No Baseline" region
		StopAfter:  3000,
	}
	cells, err := server.ExpandCells(&req, 0)
	if err != nil {
		t.Fatal(err)
	}
	directCache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := server.RunCells(directCache, 2, cells)
	if err != nil {
		t.Fatal(err)
	}

	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	r, rts := newTestRouter(t, Options{Workers: []string{w1.URL, w2.URL}, HealthInterval: -1})

	id, n := submitSweep(t, rts.URL, req)
	if n != len(cells) {
		t.Fatalf("router expanded %d cells, direct %d", n, len(cells))
	}
	streamed := streamResults(t, rts.URL, id)
	if len(streamed) != len(direct) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(direct))
	}
	sort.Slice(streamed, func(a, b int) bool { return streamed[a].Index < streamed[b].Index })
	for i := range direct {
		want, _ := json.Marshal(&direct[i])
		got, _ := json.Marshal(&streamed[i])
		if !bytes.Equal(want, got) {
			t.Errorf("cell %d differs:\n router: %s\n direct: %s", i, got, want)
		}
	}

	// The invalid cell never left the router; the rest dispatched.
	if local := r.d.met.cellsLocal.Load(); local != 1 {
		t.Errorf("cells_local = %d, want 1 (baseline@64)", local)
	}
	if routed := r.d.met.cellsRouted.Load(); routed != uint64(len(cells)-1) {
		t.Errorf("cells_routed = %d, want %d", routed, len(cells)-1)
	}
	var perWorker uint64
	for i := range r.d.met.perWorker {
		perWorker += r.d.met.perWorker[i].Load()
	}
	if perWorker != r.d.met.cellsRouted.Load() {
		t.Errorf("per-worker routed sum %d != cells_routed %d", perWorker, r.d.met.cellsRouted.Load())
	}

	// Status through the router agrees.
	resp, err := http.Get(rts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st server.Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != server.StateDone || st.CellsDone != n || st.CellsFailed != 0 {
		t.Fatalf("status = %+v, want done/%d/0", st, n)
	}
}

// TestRouterFleetDedup is the cache-affinity gate: identical cells from
// different tenants route to the same worker, so the FLEET simulates
// each distinct cell exactly once — readable from the router's
// aggregated /metrics as misses == distinct cells, with the router's
// own server.shard.* counters alongside.
func TestRouterFleetDedup(t *testing.T) {
	s1, w1 := newWorker(t)
	s2, w2 := newWorker(t)
	r, rts := newTestRouter(t, Options{Workers: []string{w1.URL, w2.URL}, HealthInterval: -1})

	req := server.SweepRequest{
		Tenant:     "tenant-a",
		Benchmarks: []string{"mesa"},
		Archs:      []string{"vca-flat"},
		PhysRegs:   []int{128, 192}, // 2 distinct cells
		StopAfter:  3000,
	}
	var ids [2]string
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rq := req
			if i == 1 {
				rq.Tenant = "tenant-b"
			}
			id, _ := submitSweep(t, rts.URL, rq)
			ids[i] = id
		}(i)
	}
	wg.Wait()

	var first []byte
	for i, id := range ids {
		res := streamResults(t, rts.URL, id)
		if len(res) != 2 {
			t.Fatalf("submission %d: %d results, want 2", i, len(res))
		}
		sort.Slice(res, func(a, b int) bool { return res[a].Index < res[b].Index })
		for _, cr := range res {
			if cr.Error != "" || !cr.Valid {
				t.Fatalf("submission %d: bad result %+v", i, cr)
			}
		}
		b, _ := json.Marshal(res)
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatal("tenants received different answers for identical sweeps")
		}
	}

	text := scrapeMetrics(t, rts.URL)
	misses, ok := promValue(t, text, "vca_simcache_misses_total")
	if !ok {
		t.Fatalf("aggregated /metrics lacks vca_simcache_misses_total:\n%s", text)
	}
	if misses != 2 {
		t.Errorf("fleet-wide misses = %d, want exactly 2 simulations for 2 tenants x 2 identical cells", misses)
	}
	hits, _ := promValue(t, text, "vca_simcache_hits_total")
	sfHits, _ := promValue(t, text, "vca_simcache_sf_hits_total")
	if hits+sfHits != 2 {
		t.Errorf("fleet hits(%d) + sf_hits(%d) = %d, want 2 deduplicated cells", hits, sfHits, hits+sfHits)
	}
	// Aggregated worker series and router-own series share the endpoint.
	if cells, _ := promValue(t, text, "vca_server_cells_done_total"); cells != 4 {
		t.Errorf("aggregated worker cells_done = %d, want 4 single-cell dispatches", cells)
	}
	if jobs, _ := promValue(t, text, "vca_server_shard_jobs_done_total"); jobs != 2 {
		t.Errorf("router jobs_done = %d, want 2", jobs)
	}
	if routed, _ := promValue(t, text, "vca_server_shard_cells_routed_total"); routed != 4 {
		t.Errorf("router cells_routed = %d, want 4", routed)
	}

	// Conservation on the router's own series: every admitted cell was
	// answered once, by a worker or locally, and none is still running.
	got := sampleValues(r.MetricSamples())
	if sub, done := got["server.shard.cells_submitted"], got["server.shard.cells_done"]; sub != 4 || done != sub {
		t.Errorf("router cells_submitted = %d, cells_done = %d, want 4 and 4", sub, done)
	}
	if running := got["server.shard.cells_running"]; running != 0 {
		t.Errorf("router cells_running = %d after every stream ended, want 0", running)
	}
	routed := got["server.shard.cells_routed"]
	if sum := got["server.shard.routed.w0"] + got["server.shard.routed.w1"]; sum != routed {
		t.Errorf("routed.w0 + routed.w1 = %d, want cells_routed %d", sum, routed)
	}
	if local := got["server.shard.cells_local"]; routed+local != got["server.shard.cells_done"] {
		t.Errorf("cells_routed %d + cells_local %d != cells_done %d", routed, local, got["server.shard.cells_done"])
	}
	// The router's server.* series are its workers' summed and nothing
	// more: the engine's own series stay under server.shard.*.
	fleet := sampleValues(s1.MetricSamples())["server.jobs_submitted"] + sampleValues(s2.MetricSamples())["server.jobs_submitted"]
	if got["server.jobs_submitted"] != fleet || fleet != 4 {
		t.Errorf("router server.jobs_submitted = %d, workers' sum = %d, want both 4", got["server.jobs_submitted"], fleet)
	}
}

// sampleValues maps each series of a sample set to its value.
func sampleValues(samples []metrics.Sample) map[string]uint64 {
	out := make(map[string]uint64, len(samples))
	for _, s := range samples {
		out[s.Name] = s.Value
	}
	return out
}

// TestRouterDeadlineKeepsWorkerHealthy: a dispatch cut short by the
// job's own deadline is the client's budget running out, not a worker
// failure. The worker must stay healthy — marking it down would remap
// its ring arc cache-cold for every tenant, and with probing off
// nothing would ever bring it back.
func TestRouterDeadlineKeepsWorkerHealthy(t *testing.T) {
	arrived := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // a request whose body is read sees its client go
		arrived <- struct{}{}
		<-r.Context().Done() // holds the cell until the router gives up
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("[]"))
	})
	slow := httptest.NewServer(mux)
	t.Cleanup(slow.Close)
	r, _ := newTestRouter(t, Options{Workers: []string{slow.URL}, HealthInterval: -1})

	cell := server.Cell{Arch: "baseline", Benchmarks: "crafty", PhysRegs: 256, DL1Ports: 2, StopAfter: 2000}
	if _, ok, err := server.CellKey(cell); err != nil || !ok { // builds the program outside the deadline
		t.Fatalf("CellKey: ok=%v err=%v", ok, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	res := r.d.Run(ctx, &server.Job{Tenant: "short"}, cell)
	if len(arrived) != 1 {
		t.Fatal("the cell never reached the worker")
	}
	if !strings.Contains(res.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("result error = %q, want the job deadline", res.Error)
	}
	if h := sampleValues(r.MetricSamples())["server.shard.workers_healthy"]; h != 1 {
		t.Errorf("server.shard.workers_healthy = %d after a job deadline, want 1", h)
	}
}

// TestRouterDispatchesByPriority: the router queues like a worker. With
// one dispatch slot held by a batch cell, an interactive sweep submitted
// afterwards dispatches before the batch sweep's remaining cell.
func TestRouterDispatchesByPriority(t *testing.T) {
	arrived := make(chan server.SweepRequest, 4)
	release := make(chan struct{})
	var held atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var req server.SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		arrived <- req
		if !held.Swap(true) {
			select { // hold the first request until the test releases it
			case <-release:
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "sw-000001", "results_url": "/v1/sweeps/sw-000001/results"})
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"index":0,"arch":"baseline","benchmarks":"crafty","phys_regs":1,"dl1_ports":2,"valid":true}` + "\n"))
	})
	fake := httptest.NewServer(mux)
	t.Cleanup(fake.Close)
	_, rts := newTestRouter(t, Options{Workers: []string{fake.URL}, Inflight: 1, HealthInterval: -1})

	sweep := func(tenant, prio string, regs ...int) server.SweepRequest {
		return server.SweepRequest{Tenant: tenant, Priority: prio, Benchmarks: []string{"crafty"},
			Archs: []string{"baseline"}, PhysRegs: regs, StopAfter: 2000}
	}
	submitSweep(t, rts.URL, sweep("bulk", "batch", 192, 256))
	if first := <-arrived; first.Priority != "batch" || first.PhysRegs[0] != 192 {
		t.Fatalf("first dispatch = %+v, want the batch sweep's cell 0", first)
	}
	submitSweep(t, rts.URL, sweep("human", "interactive", 224))
	close(release)
	if next := <-arrived; next.Priority != "interactive" || next.PhysRegs[0] != 224 {
		t.Fatalf("next dispatch = %+v, want the interactive sweep's cell", next)
	}
	if last := <-arrived; last.Priority != "batch" || last.PhysRegs[0] != 256 {
		t.Fatalf("last dispatch = %+v, want the batch sweep's cell 1", last)
	}
}

// TestRouterFailover pins the retry/failover path deterministically: a
// worker that accepts a cell but kills the results stream (a crash
// mid-dispatch as the router observes it) costs retries, a mark-down,
// and a failover — and the cell is still answered exactly once, with
// the correct result, by the ring successor.
func TestRouterFailover(t *testing.T) {
	_, live := newWorker(t)

	// The flaky worker 202-accepts every sweep, then cuts every results
	// stream at the socket.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{
			"id": "sw-000001", "cells_total": 1,
			"status_url":  "/v1/sweeps/sw-000001",
			"results_url": "/v1/sweeps/sw-000001/results",
		})
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := http.NewResponseController(w).Hijack()
		if err == nil {
			conn.Close()
		}
	})
	flaky := httptest.NewServer(mux)
	t.Cleanup(flaky.Close)

	r, rts := newTestRouter(t, Options{
		Workers:        []string{live.URL, flaky.URL},
		HealthInterval: -1, // no prober: the dispatch path alone must detect the death
		RetryAttempts:  2,
		RetryBase:      5 * time.Millisecond,
	})

	// Pick a cell whose ring owner is the flaky worker, so the dispatch
	// provably exercises failure first. The ring hashes listener URLs,
	// so the probe is at runtime — but deterministic once chosen.
	cell := server.Cell{Arch: "vca-flat", Benchmarks: "crafty", DL1Ports: 2, StopAfter: 2500}
	found := false
	for _, pr := range []int{96, 128, 160, 192, 224, 256, 288, 320} {
		cell.PhysRegs = pr
		key, ok, err := server.CellKey(cell)
		if err != nil || !ok {
			t.Fatalf("CellKey(%+v): ok=%v err=%v", cell, ok, err)
		}
		if r.d.ring.Owner(key) == strings.TrimRight(flaky.URL, "/") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no candidate cell hashed to the flaky worker — widen the candidate list")
	}

	id, _ := submitSweep(t, rts.URL, server.SweepRequest{
		Benchmarks: []string{cell.Benchmarks},
		Archs:      []string{cell.Arch},
		PhysRegs:   []int{cell.PhysRegs},
		StopAfter:  cell.StopAfter,
	})
	res := streamResults(t, rts.URL, id)
	if len(res) != 1 {
		t.Fatalf("%d results, want exactly 1 (no duplicate answers through failover)", len(res))
	}
	if res[0].Error != "" || !res[0].Valid {
		t.Fatalf("failover result: %+v", res[0])
	}

	if got := r.d.met.retries.Load(); got == 0 {
		t.Error("retries = 0, want backoff re-attempts against the flaky worker")
	}
	if got := r.d.met.failovers.Load(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	if got := r.d.met.remapped.Load(); got != 1 {
		t.Errorf("remapped = %d, want 1 (cell served off its primary shard)", got)
	}
	if r.d.pool.Healthy(strings.TrimRight(flaky.URL, "/")) {
		t.Error("flaky worker still marked healthy after transport failures")
	}
}

// TestRouterRefusesForeignKey: a worker that answers a cell with a
// valid result stored under another content address — one running a
// simulator whose keys differ from the router's — gets a final error
// for that cell, not a retry, a failover or a mark-down, and its result
// is never streamed as the cell's answer.
func TestRouterRefusesForeignKey(t *testing.T) {
	var posts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "sw-000001", "results_url": "/v1/sweeps/sw-000001/results"})
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"index":0,"arch":"baseline","benchmarks":"crafty","phys_regs":256,"dl1_ports":2,"stop_after":2000,"valid":true,"cycles":9,"cache_key":"0123"}` + "\n"))
	})
	skewed := httptest.NewServer(mux)
	t.Cleanup(skewed.Close)
	r, _ := newTestRouter(t, Options{Workers: []string{skewed.URL}, HealthInterval: -1})

	cell := server.Cell{Arch: "baseline", Benchmarks: "crafty", PhysRegs: 256, DL1Ports: 2, StopAfter: 2000}
	res := r.d.Run(context.Background(), &server.Job{Tenant: "t"}, cell)
	if res.Valid || !strings.Contains(res.Error, server.ErrKeyMismatch.Error()) || !strings.Contains(res.Error, `"0123"`) {
		t.Fatalf("result = %+v, want the key-mismatch error", res)
	}
	if n := posts.Load(); n != 1 {
		t.Errorf("%d dispatches, want 1: a foreign key is a final answer", n)
	}
	if got := r.d.met.retries.Load() + r.d.met.failovers.Load(); got != 0 {
		t.Errorf("retries + failovers = %d, want 0", got)
	}
	if !r.d.pool.Healthy(strings.TrimRight(skewed.URL, "/")) {
		t.Error("worker marked down for a final answer")
	}
}

// TestRouterValidationAndDrain: the router rejects what a worker would
// reject (same API, same errors), and drains like one (readyz 503,
// submissions 503, admitted work still answered).
func TestRouterValidationAndDrain(t *testing.T) {
	_, w1 := newWorker(t)
	r, rts := newTestRouter(t, Options{Workers: []string{w1.URL}, HealthInterval: -1, MaxCellsPerSweep: 4})

	for name, req := range map[string]server.SweepRequest{
		"unknown arch": {Benchmarks: []string{"crafty"}, Archs: []string{"pdp11"}, PhysRegs: []int{256}},
		"bad priority": {Benchmarks: []string{"crafty"}, Archs: []string{"baseline"}, PhysRegs: []int{256}, Priority: "urgent"},
		"too large":    {Benchmarks: []string{"crafty"}, Archs: []string{"baseline"}, PhysRegs: []int{64, 128, 192, 256, 320}},
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(rts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	req := server.SweepRequest{Benchmarks: []string{"gap"}, Archs: []string{"baseline"}, PhysRegs: []int{256}, StopAfter: 2000}
	id, _ := submitSweep(t, rts.URL, req)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res := streamResults(t, rts.URL, id)
	if len(res) != 1 || res[0].Error != "" || !res[0].Valid {
		t.Fatalf("drained job results: %+v", res)
	}
	resp, err := http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", resp.StatusCode)
	}
	body, _ := json.Marshal(req)
	resp, err = http.Post(rts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", resp.StatusCode)
	}
}
