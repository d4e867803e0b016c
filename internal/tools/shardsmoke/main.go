// Command shardsmoke is the CI smoke gate for the sweep service in
// both of its topologies (`make serve-smoke`): it builds vcaserved
// once, starts one plain single daemon, two worker processes and a
// router process in front of them, drives them over HTTP, and asserts
// the acceptance properties end to end:
//
//  1. The single daemon serves the API: /healthz and /readyz answer,
//     a sweep streams NDJSON results byte-identical, cell for cell, to
//     the same cells run in-process (server.RunCells) over a separate
//     cache, /metrics serves the series the runbook alerts on, and
//     SIGTERM drains it cleanly (exit 0).
//  2. The router serves the same API unchanged: /healthz, /readyz, and
//     a merged NDJSON stream byte-identical, cell for cell, to the
//     single daemon's stream for the same request.
//  3. Cache affinity: a second tenant's identical sweep adds ZERO
//     fleet-wide cache misses, and the router's aggregated /metrics
//     proves the fleet invariant misses == simulations == distinct
//     cells — each distinct cell simulated exactly once across all
//     workers, no matter how many tenants asked.
//  4. Failover: SIGKILL one worker mid-sweep; every admitted cell is
//     still answered exactly once (no loss, no duplicates, no errors)
//     through re-dispatch to the ring successor.
//  5. SIGTERM drains the router and surviving worker cleanly (exit 0).
//
// The tool exits non-zero with a diagnostic on the first violated
// property. It builds the daemon with the local toolchain, so it must
// run from the repository root (as the Makefile does).
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"vca/internal/server"
	"vca/internal/server/shard"
	"vca/internal/simcache"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shardsmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("shardsmoke: PASS")
}

// daemon is one running vcaserved process (worker or router).
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting vcaserved %v: %w", args, err)
	}
	base, err := readBaseURL(stdout)
	if err != nil {
		cmd.Process.Kill()
		return nil, err
	}
	return &daemon{cmd: cmd, base: base}, nil
}

// stop SIGTERMs the daemon and requires a clean drain (exit 0).
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s exited non-zero after SIGTERM: %w", d.base, err)
		}
		return nil
	case <-time.After(90 * time.Second):
		return fmt.Errorf("%s did not exit within 90s of SIGTERM", d.base)
	}
}

func run() error {
	tmp, err := os.MkdirTemp("", "shardsmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "vcaserved")
	build := exec.Command("go", "build", "-o", bin, "./cmd/vcaserved")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building vcaserved: %w", err)
	}

	// Two workers, a router over them, and a single daemon as the
	// byte-identity reference — four real processes, fresh caches.
	w1, err := startDaemon(bin, "-cachedir", filepath.Join(tmp, "cache-w1"), "-workers", "2")
	if err != nil {
		return err
	}
	defer w1.cmd.Process.Kill()
	w2, err := startDaemon(bin, "-cachedir", filepath.Join(tmp, "cache-w2"), "-workers", "2")
	if err != nil {
		return err
	}
	defer w2.cmd.Process.Kill()
	router, err := startDaemon(bin, "-route", w1.base+","+w2.base)
	if err != nil {
		return err
	}
	defer router.cmd.Process.Kill()
	single, err := startDaemon(bin, "-cachedir", filepath.Join(tmp, "cache-single"), "-workers", "2")
	if err != nil {
		return err
	}
	defer single.cmd.Process.Kill()
	fmt.Printf("shardsmoke: fleet up — workers %s %s, router %s, reference %s\n",
		w1.base, w2.base, router.base, single.base)

	for _, base := range []string{single.base, router.base} {
		for _, p := range []string{"/healthz", "/readyz"} {
			if err := expectStatus(base+p, http.StatusOK); err != nil {
				return err
			}
		}
	}

	// Property 1: the single daemon against the in-process path. The
	// sweep includes two "No Baseline" cells (baseline@64), which the
	// router will answer locally — they must match everywhere too.
	req := server.SweepRequest{
		Tenant:     "tenant-a",
		Benchmarks: []string{"crafty", "twolf"},
		Archs:      []string{"baseline", "vca-windowed"},
		PhysRegs:   []int{64, 256},
		StopAfter:  3000,
	}
	cells, err := server.ExpandCells(&req, 0)
	if err != nil {
		return err
	}
	directCache, err := simcache.Open(filepath.Join(tmp, "cache-direct"))
	if err != nil {
		return err
	}
	direct, err := server.RunCells(directCache, 2, cells)
	if err != nil {
		return err
	}
	viaSingle, err := streamSweep(single.base, req, nil)
	if err != nil {
		return fmt.Errorf("sweep via single daemon: %w", err)
	}
	if err := sameCells("single daemon", viaSingle, "in-process run", direct); err != nil {
		return err
	}
	fmt.Printf("shardsmoke: %d single-daemon cells byte-identical to server.RunCells\n", len(direct))

	text, err := get(single.base + "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []struct {
		series string
		value  uint64
	}{
		{"vca_server_jobs_done_total", 1},
		{"vca_server_cells_done_total", uint64(len(cells))},
		{"vca_server_queue_depth", 0},
	} {
		if v, ok := promValue(text, want.series); !ok || v != want.value {
			return fmt.Errorf("single daemon /metrics: %s = %d (present %v), want %d", want.series, v, ok, want.value)
		}
	}
	for _, series := range []string{"vca_simcache_misses_total", "vca_simcache_sf_hits_total", "vca_server_latency_cell_us_count"} {
		if _, ok := promValue(text, series); !ok {
			return fmt.Errorf("single daemon /metrics lacks %s", series)
		}
	}
	if err := single.stop(); err != nil {
		return err
	}
	fmt.Println("shardsmoke: single daemon serves the runbook's /metrics series and drained cleanly")

	// Property 2: merged-stream byte identity against the single daemon.
	viaRouter, err := streamSweep(router.base, req, nil)
	if err != nil {
		return fmt.Errorf("sweep via router: %w", err)
	}
	if err := sameCells("router", viaRouter, "single daemon", viaSingle); err != nil {
		return err
	}
	fmt.Printf("shardsmoke: %d merged-stream cells byte-identical to the single daemon\n", len(viaRouter))

	// Property 3: cache affinity. A different tenant submits the same
	// sweep; every cell must hit the cache of the worker that owns it.
	req2 := req
	req2.Tenant = "tenant-b"
	if _, err := streamSweep(router.base, req2, nil); err != nil {
		return fmt.Errorf("second tenant sweep: %w", err)
	}
	text, err = get(router.base + "/metrics")
	if err != nil {
		return err
	}
	// 16 admitted cells: 4 No-Baseline answered locally, 12 routed, but
	// only 6 are distinct — the fleet may simulate exactly 6 times.
	misses, _ := promValue(text, "vca_simcache_misses_total")
	sims, _ := promValue(text, "vca_simcache_simulations_total")
	hits, _ := promValue(text, "vca_simcache_hits_total")
	sfHits, _ := promValue(text, "vca_simcache_sf_hits_total")
	if misses != 6 || sims != 6 {
		return fmt.Errorf("fleet-wide misses=%d simulations=%d, want 6 and 6 (each distinct cell simulated exactly once across the fleet)", misses, sims)
	}
	if hits+sfHits != 6 {
		return fmt.Errorf("fleet-wide hits(%d)+sf_hits(%d) = %d, want 6 cache-affine answers for the second tenant", hits, sfHits, hits+sfHits)
	}
	local, _ := promValue(text, "vca_server_shard_cells_local_total")
	routed, _ := promValue(text, "vca_server_shard_cells_routed_total")
	if local != 4 || routed != 12 {
		return fmt.Errorf("router cells_local=%d cells_routed=%d, want 4 and 12", local, routed)
	}
	w1Routed, _ := promValue(text, "vca_server_shard_routed_w0_total")
	w2Routed, _ := promValue(text, "vca_server_shard_routed_w1_total")
	if w1Routed+w2Routed != routed {
		return fmt.Errorf("per-shard routed %d+%d != cells_routed %d", w1Routed, w2Routed, routed)
	}
	fmt.Printf("shardsmoke: fleet invariant holds — 6 misses == 6 simulations for 2 tenants x 6 distinct cells (shards w0=%d w1=%d)\n", w1Routed, w2Routed)

	// Property 4: SIGKILL failover. Eight distinct ~1M-instruction cells
	// keep the fleet busy for seconds; the victim is whichever worker
	// owns more of them (computed with the same ring the router uses),
	// killed the moment the first result lands.
	killReq := server.SweepRequest{
		Tenant:     "kill-test",
		Benchmarks: []string{"crafty"},
		Archs:      []string{"vca-flat"},
		PhysRegs:   []int{96, 128, 160, 192, 224, 256, 288, 320},
		StopAfter:  1000000,
	}
	cells, err = server.ExpandCells(&killReq, 0)
	if err != nil {
		return err
	}
	ring := shard.NewRing([]string{w1.base, w2.base}, 128)
	owned := map[string]int{}
	for _, c := range cells {
		key, ok, err := server.CellKey(c)
		if err != nil || !ok {
			return fmt.Errorf("CellKey(%+v): ok=%v err=%v", c, ok, err)
		}
		owned[ring.Owner(key)]++
	}
	victim, survivor := w1, w2
	if owned[w2.base] > owned[w1.base] {
		victim, survivor = w2, w1
	}
	fmt.Printf("shardsmoke: killing %s (owns %d of %d cells) after the first result\n",
		victim.base, owned[victim.base], len(cells))

	killed := make(chan error, 1)
	results, err := streamSweep(router.base, killReq, func() {
		killed <- victim.cmd.Process.Kill() // SIGKILL: no drain, no goodbye
	})
	if err != nil {
		return fmt.Errorf("failover sweep: %w", err)
	}
	if err := <-killed; err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	victim.cmd.Wait()
	if len(results) != len(cells) {
		return fmt.Errorf("failover sweep answered %d of %d admitted cells", len(results), len(cells))
	}
	seen := map[int]bool{}
	for _, r := range results {
		if seen[r.Index] {
			return fmt.Errorf("cell %d answered twice — failover duplicated a result", r.Index)
		}
		seen[r.Index] = true
		if r.Error != "" {
			return fmt.Errorf("cell %d lost to the kill instead of failing over: %s", r.Index, r.Error)
		}
		if !r.Valid {
			return fmt.Errorf("cell %d invalid after failover", r.Index)
		}
	}
	text, err = get(router.base + "/metrics")
	if err != nil {
		return err
	}
	failovers, _ := promValue(text, "vca_server_shard_failovers_total")
	remapped, _ := promValue(text, "vca_server_shard_remapped_total")
	if failovers+remapped == 0 {
		return fmt.Errorf("worker killed mid-sweep but failovers=0 and remapped=0 — the victim's cells were not re-dispatched")
	}
	fmt.Printf("shardsmoke: SIGKILL failover — every cell answered exactly once (failovers=%d remapped=%d)\n", failovers, remapped)

	// Property 5: graceful shutdown of the survivors.
	if err := router.stop(); err != nil {
		return err
	}
	if err := survivor.stop(); err != nil {
		return err
	}
	fmt.Println("shardsmoke: router and surviving worker drained cleanly")
	return nil
}

// sameCells requires two result sets for the same sweep to be
// byte-identical cell for cell (as JSON, in index order) and free of
// errors. It sorts both in place.
func sameCells(gotName string, got []server.CellResult, wantName string, want []server.CellResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s answered %d cells, %s %d", gotName, len(got), wantName, len(want))
	}
	byIndex := func(a, b server.CellResult) int { return cmp.Compare(a.Index, b.Index) }
	slices.SortFunc(got, byIndex)
	slices.SortFunc(want, byIndex)
	for i := range want {
		w, _ := json.Marshal(&want[i])
		g, _ := json.Marshal(&got[i])
		if !bytes.Equal(w, g) {
			return fmt.Errorf("cell %d not byte-identical:\n %s: %s\n %s: %s", i, gotName, g, wantName, w)
		}
		if want[i].Error != "" {
			return fmt.Errorf("cell %d failed: %s", i, want[i].Error)
		}
	}
	return nil
}

// readBaseURL scans daemon stdout for the listening line.
func readBaseURL(r interface{ Read([]byte) (int, error) }) (string, error) {
	sc := bufio.NewScanner(r)
	deadline := time.Now().Add(60 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		if _, after, ok := strings.Cut(line, "listening on "); ok {
			// Keep draining stdout in the background so the child never
			// blocks on a full pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			return strings.TrimSpace(after), nil
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return "", fmt.Errorf("daemon never printed its listening address")
}

func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, b.String())
	}
	return b.String(), nil
}

func expectStatus(url string, want int) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("GET %s: status %d, want %d", url, resp.StatusCode, want)
	}
	return nil
}

// promValue extracts one series value from Prometheus text output.
func promValue(text, series string) (uint64, bool) {
	for _, line := range strings.Split(text, "\n") {
		var v uint64
		if n, _ := fmt.Sscanf(line, series+" %d", &v); n == 1 && strings.HasPrefix(line, series+" ") {
			return v, true
		}
	}
	return 0, false
}

// streamSweep submits the sweep and collects the NDJSON stream; if
// afterFirst is non-nil it runs once, right after the first result
// line arrives (the failover kill hook).
func streamSweep(base string, req server.SweepRequest, afterFirst func()) ([]server.CellResult, error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := bufio.NewReader(resp.Body).ReadString('\n')
		return nil, fmt.Errorf("submit: status %d: %s", resp.StatusCode, b)
	}
	var acc struct {
		ID         string `json:"id"`
		ResultsURL string `json:"results_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		return nil, err
	}

	rr, err := http.Get(base + acc.ResultsURL)
	if err != nil {
		return nil, err
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("results: status %d", rr.StatusCode)
	}
	var out []server.CellResult
	sc := bufio.NewScanner(rr.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var r server.CellResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("bad NDJSON line %q: %w", sc.Text(), err)
		}
		out = append(out, r)
		if len(out) == 1 && afterFirst != nil {
			afterFirst()
		}
	}
	return out, sc.Err()
}
