package simcache

import (
	"encoding/json"
	"sync"
	"testing"

	"vca/internal/core"
	"vca/internal/minic"
	"vca/internal/program"
)

func sharedTestJob(t *testing.T) (core.Config, []*program.Program) {
	t.Helper()
	prog, err := minic.Build("sfjob", `
int work(int n) {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) { acc = acc + i * i; }
  return acc;
}
int main() {
  print_int(work(500));
  return 0;
}
`, minic.ABIFlat)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := core.DefaultConfig(core.RenameConventional, core.WindowNone, 1, 256)
	cfg.MaxCycles = 1 << 22
	return cfg, []*program.Program{prog}
}

// TestSingleflightFollowerSharesLeader pins the coalescing contract
// deterministically: a caller arriving while a flight for its key is in
// progress blocks, shares the leader's published result, and is counted
// as an SFHit — without touching the disk or simulating.
func TestSingleflightFollowerSharesLeader(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, progs := sharedTestJob(t)
	key := Key(cfg, progs, false)

	// Simulate once directly to have a result to publish.
	res, err := simulate(cfg, progs, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	counters := res.Metrics.CounterMap()

	// Install an in-flight leader by hand, then call RunMachineShared
	// from a goroutine: it must block on the flight, not simulate.
	f := &flight{done: make(chan struct{})}
	c.sf.flights = map[string]*flight{key: f}

	type out struct {
		e   *Entry
		hit bool
		err error
	}
	got := make(chan out, 1)
	go func() {
		e, hit, err := c.RunMachineShared(key, cfg, progs, false)
		got <- out{e, hit, err}
	}()

	// Publish the leader's outcome and release the follower.
	f.e = simulated(key, res, counters)
	close(f.done)

	o := <-got
	if o.err != nil {
		t.Fatalf("follower error: %v", o.err)
	}
	if o.e != f.e || o.e.Result != res {
		t.Fatalf("follower did not share the leader's entry")
	}
	if !o.hit {
		t.Fatalf("follower not reported as a shared hit")
	}
	s := c.Stats()
	if s.SFHits != 1 || s.Misses != 0 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want exactly one SF hit and nothing else", s)
	}
}

// TestSingleflightConcurrentIdenticalJobs drives K concurrent identical
// jobs through RunMachineShared and asserts the service invariant: no
// matter how the goroutines interleave, exactly one simulation runs
// (Misses == 1) and every other caller is answered by the flight or the
// store (SFHits + Hits == K-1), all with byte-identical payloads.
func TestSingleflightConcurrentIdenticalJobs(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, progs := sharedTestJob(t)
	key := Key(cfg, progs, false)

	const K = 8
	payloads := make([][]byte, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := c.RunMachineShared(key, cfg, progs, false)
			if err != nil {
				errs[i] = err
				return
			}
			payloads[i], errs[i] = payloadBytes(e.Result, e.Counters)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < K; i++ {
		if string(payloads[i]) != string(payloads[0]) {
			t.Fatalf("caller %d payload differs from caller 0", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 simulation for %d concurrent identical jobs (stats %+v)", s.Misses, K, s)
	}
	if s.SFHits+s.Hits != K-1 {
		t.Fatalf("sf_hits(%d) + hits(%d) != %d (stats %+v)", s.SFHits, s.Hits, K-1, s)
	}

	// The stats must survive a JSON round trip with the sf_hits field —
	// /metrics and -cachestats consumers read this form.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.SFHits != s.SFHits {
		t.Fatalf("SFHits lost in JSON round trip: %d != %d", back.SFHits, s.SFHits)
	}
}
