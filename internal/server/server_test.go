package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vca/internal/simcache"
)

// newTestServer builds a server over a fresh cache directory and an
// httptest front end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Cache == nil {
		cache, err := simcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = cache
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func submitSweep(t *testing.T, ts *httptest.Server, req SweepRequest) (id string, cells int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
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

func streamResults(t *testing.T, ts *httptest.Server, id string) []CellResult {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}
	var out []CellResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var r CellResult
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

// TestEndToEndByteIdentity is the acceptance gate: a sweep submitted
// over HTTP and streamed back as NDJSON must be byte-identical, cell
// for cell, to the same cells dispatched directly through
// simcache.Runner in-process (RunCells) — same results, same counters,
// same JSON bytes. The service adds transport and scheduling, never
// semantics.
func TestEndToEndByteIdentity(t *testing.T) {
	req := SweepRequest{
		Tenant:     "e2e",
		Benchmarks: []string{"crafty"},
		Archs:      []string{"baseline", "vca-windowed"},
		PhysRegs:   []int{64, 256}, // baseline@64 is a "No Baseline" region
		StopAfter:  3000,
	}

	// Direct path: same cells, standard Runner, its own cache dir.
	cells, err := ExpandCells(&req, 0)
	if err != nil {
		t.Fatal(err)
	}
	directCache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunCells(directCache, 2, cells)
	if err != nil {
		t.Fatal(err)
	}

	// Service path: fresh cache, HTTP round trip.
	_, ts := newTestServer(t, Options{Workers: 2})
	id, n := submitSweep(t, ts, req)
	if n != len(cells) {
		t.Fatalf("service expanded %d cells, direct %d", n, len(cells))
	}
	streamed := streamResults(t, ts, id)
	if len(streamed) != len(direct) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(direct))
	}
	sort.Slice(streamed, func(a, b int) bool { return streamed[a].Index < streamed[b].Index })

	sawInvalid := false
	for i := range direct {
		want, _ := json.Marshal(&direct[i])
		got, _ := json.Marshal(&streamed[i])
		if !bytes.Equal(want, got) {
			t.Errorf("cell %d differs:\n service: %s\n direct:  %s", i, got, want)
		}
		if direct[i].Error != "" {
			t.Errorf("cell %d failed: %s", i, direct[i].Error)
		}
		if !direct[i].Valid {
			sawInvalid = true
		} else {
			if len(direct[i].Counters) == 0 {
				t.Errorf("cell %d carries no counter map", i)
			}
			if direct[i].CacheKey == "" {
				t.Errorf("cell %d carries no cache key", i)
			}
		}
	}
	if !sawInvalid {
		t.Error("sweep should contain a No-Baseline (invalid) cell: baseline@64")
	}

	// Status endpoint agrees.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateDone || st.CellsDone != len(cells) || st.CellsFailed != 0 {
		t.Fatalf("status = %+v, want done/%d/0", st, len(cells))
	}
}

// promValue extracts a single series value from Prometheus text output.
func promValue(t *testing.T, text, series string) (uint64, bool) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v uint64
		if n, _ := fmt.Sscanf(line, series+" %d", &v); n == 1 &&
			strings.HasPrefix(line, series+" ") {
			return v, true
		}
	}
	return 0, false
}

// TestSingleflightConcurrentSubmissions is the second acceptance gate:
// K concurrent submissions of the identical single-cell sweep must
// trigger exactly one simulation, proven by the cache/singleflight
// counters exposed on /metrics — vca_simcache_misses_total == 1 and
// sf_hits + hits == K-1 — while every client still receives a full
// result.
func TestSingleflightConcurrentSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	req := SweepRequest{
		Tenant:     "dedup",
		Benchmarks: []string{"mesa"},
		Archs:      []string{"vca-flat"},
		PhysRegs:   []int{192},
		StopAfter:  4000,
	}

	const K = 6
	ids := make([]string, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], _ = submitSweep(t, ts, req)
		}(i)
	}
	wg.Wait()

	var first []byte
	for i, id := range ids {
		res := streamResults(t, ts, id)
		if len(res) != 1 || res[0].Error != "" || !res[0].Valid {
			t.Fatalf("submission %d: unexpected results %+v", i, res)
		}
		b, _ := json.Marshal(&res[0])
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatalf("submission %d result differs from submission 0", i)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	text := body.String()

	misses, ok := promValue(t, text, "vca_simcache_misses_total")
	if !ok {
		t.Fatalf("/metrics lacks vca_simcache_misses_total:\n%s", text)
	}
	hits, _ := promValue(t, text, "vca_simcache_hits_total")
	sfHits, ok := promValue(t, text, "vca_simcache_sf_hits_total")
	if !ok {
		t.Fatalf("/metrics lacks vca_simcache_sf_hits_total:\n%s", text)
	}
	if misses != 1 {
		t.Errorf("vca_simcache_misses_total = %d, want exactly 1 simulation for %d identical submissions", misses, K)
	}
	if hits+sfHits != K-1 {
		t.Errorf("hits(%d) + sf_hits(%d) = %d, want %d coalesced/memoized answers", hits, sfHits, hits+sfHits, K-1)
	}
	if done, _ := promValue(t, text, "vca_server_jobs_done_total"); done != K {
		t.Errorf("vca_server_jobs_done_total = %d, want %d", done, K)
	}
	if cells, _ := promValue(t, text, "vca_server_cells_done_total"); cells != K {
		t.Errorf("vca_server_cells_done_total = %d, want %d", cells, K)
	}
}

// TestMultiThreadConvWindowNoBaseline pins feasibility to core's own
// validation: core sizes conventional windows from the whole register
// file, so a 2-thread conv-windowed machine builds only at 129–159
// registers. At 256 the cell is a "No Baseline" answer (valid:false,
// no error, counted as invalid), while 144 still simulates.
func TestMultiThreadConvWindowNoBaseline(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	id, n := submitSweep(t, ts, SweepRequest{
		Tenant:     "convwin",
		Benchmarks: []string{"gcc_expr,parser"},
		Archs:      []string{"conv-windowed"},
		PhysRegs:   []int{144, 256},
		StopAfter:  2000,
	})
	if n != 2 {
		t.Fatalf("expanded %d cells, want 2", n)
	}
	res := streamResults(t, ts, id)
	sort.Slice(res, func(a, b int) bool { return res[a].Index < res[b].Index })
	if len(res) != 2 {
		t.Fatalf("streamed %d results, want 2", len(res))
	}
	if r := res[0]; r.PhysRegs != 144 || !r.Valid || r.Error != "" {
		t.Errorf("144 registers: want a simulated cell, got %+v", r)
	}
	if r := res[1]; r.PhysRegs != 256 || r.Valid || r.Error != "" || r.CacheKey != "" {
		t.Errorf("256 registers: want valid:false with no error, got %+v", r)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if v, _ := promValue(t, body.String(), "vca_server_cells_invalid_total"); v != 1 {
		t.Errorf("vca_server_cells_invalid_total = %d, want 1", v)
	}
	if v, _ := promValue(t, body.String(), "vca_server_cells_failed_total"); v != 0 {
		t.Errorf("vca_server_cells_failed_total = %d, want 0", v)
	}
}

// TestGracefulDrain pins the shutdown sequence: Drain lets admitted
// work finish, flips /readyz to 503, and refuses new submissions with
// 503, while already-streamed results stay complete.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	req := SweepRequest{
		Benchmarks: []string{"gap"},
		Archs:      []string{"baseline"},
		PhysRegs:   []int{256},
		StopAfter:  3000,
	}
	id, _ := submitSweep(t, ts, req)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The admitted job finished with a real answer.
	res := streamResults(t, ts, id)
	if len(res) != 1 || res[0].Error != "" || !res[0].Valid {
		t.Fatalf("drained job results: %+v", res)
	}

	// Readiness reflects the drain; liveness does not.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, want 200", resp.StatusCode)
	}

	// New submissions are refused with 503.
	body, _ := json.Marshal(req)
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", resp.StatusCode)
	}
}

// TestForcedDrainAnswersEveryCell pins drain convergence under an
// expired budget: even when the drain context is already cancelled,
// every admitted cell receives an answer (abandoned cells report
// errors, queued cells fail fast) and workers exit.
func TestForcedDrainAnswersEveryCell(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	req := SweepRequest{
		Benchmarks: []string{"crafty", "twolf", "parser"},
		Archs:      []string{"baseline"},
		PhysRegs:   []int{256},
		StopAfter:  2000,
	}
	id, n := submitSweep(t, ts, req)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()     // expired before the drain starts
	s.Drain(ctx) // error value depends on timing; convergence is the contract

	res := streamResults(t, ts, id)
	if len(res) != n {
		t.Fatalf("forced drain answered %d of %d cells", len(res), n)
	}
}

// TestSubmitValidation pins the 400-family behavior.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxCellsPerSweep: 4})
	for name, req := range map[string]SweepRequest{
		"unknown arch":  {Benchmarks: []string{"crafty"}, Archs: []string{"pdp11"}, PhysRegs: []int{256}},
		"unknown bench": {Benchmarks: []string{"doom"}, Archs: []string{"baseline"}, PhysRegs: []int{256}},
		"empty axes":    {Benchmarks: []string{"crafty"}, Archs: []string{"baseline"}},
		"bad priority":  {Benchmarks: []string{"crafty"}, Archs: []string{"baseline"}, PhysRegs: []int{256}, Priority: "urgent"},
		"too large":     {Benchmarks: []string{"crafty"}, Archs: []string{"baseline"}, PhysRegs: []int{64, 128, 192, 256, 320}},
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/sw-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
}

// TestQueueFullRejection pins 429 on a saturated queue: admission is
// atomic per sweep, so a sweep larger than the remaining queue capacity
// is refused whole, deterministically, regardless of worker progress.
func TestQueueFullRejection(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueLimit: 1})
	req := SweepRequest{
		Benchmarks: []string{"crafty"},
		Archs:      []string{"baseline"},
		PhysRegs:   []int{192, 256}, // 2 cells > QueueLimit 1
		StopAfter:  2000,
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized sweep: status %d, want 429", resp.StatusCode)
	}
}

// TestQueueDivergenceSurvivesAndAnswers simulates the queue-accounting
// divergence at the service level: a cell stolen out of a tenant FIFO
// behind the queue's back, so the size counter claims one more cell
// than the rings can ever deliver. The daemon used to die on a panic in
// Pop; the contract now is that it survives, repairs the queue, exports
// the divergence counter, and still answers every admitted cell — the
// lost one with a structured error at drain time.
func TestQueueDivergenceSurvivesAndAnswers(t *testing.T) {
	cache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Build the server without its worker pool so the admitted cells are
	// still queued when the corruption is injected.
	s := newServer(Options{Workers: 2}, "server", local{cache: cache})

	j, err := s.Submit(SweepRequest{
		Benchmarks: []string{"gap", "crafty", "twolf"},
		Archs:      []string{"baseline"},
		PhysRegs:   []int{256},
		StopAfter:  2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(j.Cells)

	// Steal the first queued cell: the FIFO loses a workItem while the
	// size counter still claims it.
	q := s.queue
	q.mu.Lock()
	tq := q.classes[PriorityNormal].tenants["default"]
	stolen := tq.items[tq.head].cell
	copy(tq.items[tq.head:], tq.items[tq.head+1:])
	tq.items = tq.items[:len(tq.items)-1]
	q.mu.Unlock()

	// Start the workers. They serve the surviving cells, then hit the
	// divergence (size claims one more cell than the rings hold), repair
	// it, and drain cleanly.
	s.start()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if got := q.InvariantFailures(); got != 1 {
		t.Fatalf("InvariantFailures = %d, want 1", got)
	}

	// Every admitted cell must have an answer; the stolen one carries
	// the structured divergence error, the rest succeeded normally.
	st := j.Status()
	if st.State != StateDone || st.CellsDone != n || st.CellsFailed != 1 {
		t.Fatalf("status = %+v, want done with %d results and 1 failure", st, n)
	}
	failed := 0
	for i := 0; i < n; i++ {
		res, ok := j.ResultAt(context.Background(), i)
		if !ok {
			t.Fatalf("result %d missing", i)
		}
		if res.Error == "" {
			continue
		}
		failed++
		if res.Index != stolen {
			t.Errorf("failed cell index = %d, want stolen index %d", res.Index, stolen)
		}
		if !strings.Contains(res.Error, "cell lost without a result") || !strings.Contains(res.Error, "queue invariant violated") {
			t.Errorf("lost-cell error = %q, want the structured divergence message", res.Error)
		}
	}
	if failed != 1 {
		t.Fatalf("failed cells = %d, want exactly the stolen one", failed)
	}

	// The repair is visible on the metric surface.
	var v uint64
	found := false
	for _, sm := range s.MetricSamples() {
		if sm.Name == "server.queue_invariant_failures" {
			v, found = sm.Value, true
		}
	}
	if !found || v != 1 {
		t.Fatalf("server.queue_invariant_failures sample = %d (found=%v), want 1", v, found)
	}
}

// waitUntil polls cond until it holds or the timeout expires.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSlowClientCannotStallService pins the bounded-stream contract the
// NDJSON path documents: a reader that requests a result stream and
// then never consumes a byte costs the service one stream goroutine,
// one bounded buffer, and one write deadline — never a cell worker.
// The job must finish on schedule, the stalled stream must be reaped by
// the per-result write deadline, and a healthy client must still be
// able to stream the complete result set afterwards.
func TestSlowClientCannotStallService(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, StreamWriteTimeout: 300 * time.Millisecond})

	// One simulation, a flood of bytes: 1024 copies of the same cell all
	// answer from cache/singleflight, but each streams its full ~2.4KB
	// result line, so the ~2.5MB NDJSON body cannot fit in any socket
	// buffer and the writes against the stalled reader must block.
	bench := make([]string, 1024)
	for i := range bench {
		bench[i] = "crafty"
	}
	req := SweepRequest{
		Tenant:     "slow",
		Benchmarks: bench,
		Archs:      []string{"vca-flat"},
		PhysRegs:   []int{192},
		StopAfter:  3000,
	}
	id, n := submitSweep(t, ts, req)

	// A raw TCP client with a shrunken receive window that sends the
	// stream request and then never reads.
	d := net.Dialer{Control: func(network, address string, c syscall.RawConn) error {
		var serr error
		cerr := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<10)
		})
		if cerr != nil {
			return cerr
		}
		return serr
	}}
	conn, err := d.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/sweeps/%s/results HTTP/1.1\r\nHost: vcaserved\r\n\r\n", id)

	// Every cell still completes: workers append results to the job
	// without ever touching a stream.
	waitUntil(t, 60*time.Second, "job completion behind a stalled reader", func() bool {
		j, ok := s.Job(id)
		if !ok {
			return false
		}
		st := j.Status()
		return st.State == StateDone && st.CellsDone == n && st.CellsFailed == 0
	})

	// The write deadline reaps the stalled stream: its handler exits
	// (recording a results-latency observation) with the client still
	// not reading.
	waitUntil(t, 10*time.Second, "stalled stream reaped by the write deadline", func() bool {
		for _, sm := range s.MetricSamples() {
			if sm.Name == "server.latency.results_us" {
				return sm.Count >= 1
			}
		}
		return false
	})

	// The service is fully usable after the stall: a healthy client
	// streams all n results.
	res := streamResults(t, ts, id)
	if len(res) != n {
		t.Fatalf("healthy client got %d results, want %d", len(res), n)
	}
}
