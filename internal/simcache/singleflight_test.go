package simcache

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"vca/internal/core"
	"vca/internal/emu"
	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/workload"
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
	key := Key(cfg, progs)

	// Simulate once directly (a nil cache) to have a result to publish.
	var direct *Cache
	leader, _, err := direct.Run(cfg, progs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Install an in-flight leader by hand, then call Run from a
	// goroutine: it must block on the flight, not simulate.
	f := &flight{done: make(chan struct{})}
	c.sf.flights = map[string]*flight{key: f}

	type out struct {
		e   *Entry
		hit bool
		err error
	}
	got := make(chan out, 1)
	go func() {
		e, hit, err := c.Run(cfg, progs, nil)
		got <- out{e, hit, err}
	}()

	// Publish the leader's outcome and release the follower.
	f.e = leader
	close(f.done)

	o := <-got
	if o.err != nil {
		t.Fatalf("follower error: %v", o.err)
	}
	if o.e != f.e {
		t.Fatalf("follower did not share the leader's entry")
	}
	if !o.hit {
		t.Fatalf("follower not reported as a hit")
	}
	s := c.Stats()
	if s.SFHits != 1 || s.Misses != 0 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want exactly one SF hit and nothing else", s)
	}
}

// TestSingleflightConcurrentIdenticalJobs drives K concurrent identical
// jobs through Run and asserts the service invariant: no
// matter how the goroutines interleave, exactly one simulation runs
// (Misses == 1) and every other caller is answered by the flight or the
// store (SFHits + Hits == K-1), all with byte-identical payloads.
func TestSingleflightConcurrentIdenticalJobs(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, progs := sharedTestJob(t)

	const K = 8
	payloads := make([][]byte, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := c.Run(cfg, progs, nil)
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

// gateWriter is a trace writer that holds the simulation writing to it
// at its first committed instruction until release is closed.
type gateWriter struct {
	once             sync.Once
	started, release chan struct{}
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.started)
		<-w.release
	})
	return len(p), nil
}

// waitInFlightGroup waits until n goroutines are inside flightGroup.do:
// a leader running its flight, a follower waiting on one, or a caller
// waiting for the group's lock.
func waitInFlightGroup(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		m := runtime.Stack(buf, true)
		if m == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		if bytes.Count(buf[:m], []byte("simcache.(*flightGroup).do(")) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d goroutines reached the flight group:\n%s", n, buf[:m])
		}
	}
}

// TestRunCoalescesCheckpointedRuns: N concurrent identical runs from a
// checkpoint simulate once. The leader is held mid-simulation (its
// trace writer, which is not part of the key) until every other caller
// waits on its flight, so the accounting is exact: one miss, one
// simulation, one store and N-1 singleflight hits. Every follower is
// answered the leader's entry with hit=true, and so is a later caller
// answered by the store.
func TestRunCoalescesCheckpointedRuns(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("crafty")
	m := testModels[2]
	cfg, progs := jobFor(t, b, m)
	gate := &gateWriter{started: make(chan struct{}), release: make(chan struct{})}
	cfg.TraceWriter = gate
	cks := []*emu.Checkpoint{fastCheckpoint(t, b, m, 5000)}

	const N = 6
	type answer struct {
		e   *Entry
		hit bool
		err error
	}
	answers := make(chan answer, N)
	call := func() {
		e, hit, err := c.Run(cfg, progs, cks)
		answers <- answer{e, hit, err}
	}
	go call()
	<-gate.started // the first caller leads, and is simulating
	for i := 1; i < N; i++ {
		go call()
	}
	waitInFlightGroup(t, N)
	close(gate.release)

	var leader *Entry
	var shared []*Entry
	for i := 0; i < N; i++ {
		a := <-answers
		switch {
		case a.err != nil:
			t.Fatal(a.err)
		case a.hit:
			shared = append(shared, a.e)
		case leader != nil:
			t.Fatal("two callers report simulating")
		default:
			leader = a.e
		}
	}
	if leader == nil || len(shared) != N-1 {
		t.Fatalf("%d callers simulated and %d were answered, want 1 and %d", N-len(shared), len(shared), N-1)
	}
	for _, e := range shared {
		if e != leader {
			t.Fatal("a follower was not answered the leader's entry")
		}
	}
	if s, want := c.Stats(), (Stats{Misses: 1, Simulations: 1, Stores: 1, SFHits: N - 1}); s != want {
		t.Fatalf("stats %+v, want %+v", s, want)
	}

	stored, hit, err := c.Run(cfg, progs, cks)
	if err != nil || !hit {
		t.Fatalf("stored answer: hit=%v err=%v, want a hit", hit, err)
	}
	if got, want := resultJSON(t, stored.Result, stored.Counters), resultJSON(t, leader.Result, leader.Counters); got != want {
		t.Fatal("stored answer differs from the leader's simulation")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Simulations != 1 {
		t.Fatalf("stats after the stored answer %+v, want one hit", s)
	}
}

// TestRunLeaderRecheckIsHit: a flight leader whose re-check under
// leadership finds the entry another caller stored does not simulate,
// so it reports hit=true and counts a cache hit.
func TestRunLeaderRecheckIsHit(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, progs := sharedTestJob(t)
	var direct *Cache
	ref, _, err := direct.Run(cfg, progs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Hold the group's lock so the caller stops past its first lookup,
	// then store the entry before letting it lead.
	c.sf.mu.Lock()
	type answer struct {
		hit bool
		err error
	}
	got := make(chan answer, 1)
	go func() {
		_, hit, err := c.Run(cfg, progs, nil)
		got <- answer{hit, err}
	}()
	waitInFlightGroup(t, 1)
	if err := c.Put(Key(cfg, progs), cfg, progs, ref.Result, ref.Counters); err != nil {
		t.Fatal(err)
	}
	c.sf.mu.Unlock()

	if a := <-got; a.err != nil || !a.hit {
		t.Fatalf("leader re-check: hit=%v err=%v, want a hit", a.hit, a.err)
	}
	if s, want := c.Stats(), (Stats{Hits: 1, Stores: 1}); s != want {
		t.Fatalf("stats %+v, want %+v", s, want)
	}
}
