package simcache

import (
	"sync"

	"vca/internal/core"
	"vca/internal/program"
)

// flight is one in-progress simulation that concurrent callers of
// RunMachineShared coalesce onto. The leader closes done after
// publishing res/counters/err; followers block on done and share the
// published values. Results are immutable after Run, so sharing the
// *core.Result pointer across callers is safe.
type flight struct {
	done     chan struct{}
	res      *core.Result
	counters map[string]uint64
	err      error
}

// flightGroup dedups concurrent work by key: the first caller for a key
// becomes the leader and runs fn; callers arriving while the leader is
// in flight wait and share the leader's outcome. Distinct keys never
// interact. This is the classic singleflight pattern, specialized to
// simulation results so the repository adds no external dependency.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// do returns fn()'s outcome for key, coalescing concurrent calls.
// shared is true for followers (the callers that did not run fn).
func (g *flightGroup) do(key string, fn func() (*core.Result, map[string]uint64, error)) (res *core.Result, counters map[string]uint64, shared bool, err error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.res, f.counters, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	f.res, f.counters, f.err = fn()

	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
	return f.res, f.counters, false, f.err
}

// RunMachineShared is RunMachine for a cache shared by concurrent
// clients (the sweep service, internal/server): identical jobs that
// overlap in time are deduplicated with singleflight, so N concurrent
// requests for the same (config, programs, windowed) key pay for
// exactly one simulation — the leader simulates (and stores the result
// as usual); followers block and share the leader's result, counted as
// SFHits rather than cache hits.
//
// key must be Key(cfg, progs, windowed): callers that also report the
// content address (server.RunCell) derive it once and pass it in. It is
// both the store address and the dedup key, so a follower can only ever
// observe a result the current simulator would reproduce bit for bit.
// With a nil cache there is no shared store to coalesce on and
// RunMachineShared degrades to a direct simulation per caller, exactly
// like RunMachine.
func (c *Cache) RunMachineShared(key string, cfg core.Config, progs []*program.Program, windowed bool) (res *core.Result, counters map[string]uint64, hit bool, err error) {
	if c == nil {
		return c.RunMachine(cfg, progs, windowed)
	}
	// Fast path: already stored. Counted as an ordinary cache hit.
	if e, ok := c.Get(key); ok {
		c.hits.Add(1)
		return e.Result, e.Counters, true, nil
	}
	res, counters, shared, err := c.sf.do(key, func() (*core.Result, map[string]uint64, error) {
		// Re-check under flight leadership: another leader may have
		// finished and stored between our Get miss and acquiring the
		// flight, and a hit here must not be double-simulated.
		if e, ok := c.Get(key); ok {
			c.hits.Add(1)
			return e.Result, e.Counters, nil
		}
		c.misses.Add(1)
		c.simulations.Add(1)
		r, err := simulate(cfg, progs, windowed)
		if err != nil {
			return nil, nil, err
		}
		cm := r.Metrics.CounterMap()
		if err := c.Put(key, cfg, progs, r, cm); err != nil {
			c.errs.Add(1) // store failure degrades to "no caching"
		}
		return r, cm, nil
	})
	if err != nil {
		return nil, nil, false, err
	}
	if shared {
		c.sfHits.Add(1)
	}
	return res, counters, shared, nil
}
