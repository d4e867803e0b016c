package simcache

import (
	"sync"

	"vca/internal/core"
	"vca/internal/program"
)

// flight is one in-progress simulation that concurrent callers of
// RunMachineShared coalesce onto. The leader closes done after
// publishing e/err; followers block on done and share the published
// values. Results are immutable after Run, so sharing the entry across
// callers is safe.
type flight struct {
	done chan struct{}
	e    *Entry
	err  error
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
func (g *flightGroup) do(key string, fn func() (*Entry, error)) (e *Entry, shared bool, err error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.e, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	f.e, f.err = fn()

	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
	return f.e, false, f.err
}

// RunMachineShared is RunMachine for a cache shared by concurrent
// clients (the sweep service, internal/server): identical jobs that
// overlap in time are deduplicated with singleflight, so N concurrent
// requests for the same (config, programs, windowed) key pay for
// exactly one simulation — the leader simulates (and stores the result
// as usual); followers block and share the leader's result, counted as
// SFHits rather than cache hits.
//
// The answer is an Entry carrying Schema, Key, Result and Counters. A
// hit returns the view's entry, whose CountersJSON is the counter map
// already encoded; a simulated answer has none. Either way the entry
// is shared: treat it as read-only.
//
// key must be Key(cfg, progs, windowed): callers that also report the
// content address (server.RunCell) derive it once and pass it in. It is
// both the store address and the dedup key, so a follower can only ever
// observe a result the current simulator would reproduce bit for bit.
// With a nil cache there is no shared store to coalesce on and
// RunMachineShared degrades to a direct simulation per caller, exactly
// like RunMachine.
func (c *Cache) RunMachineShared(key string, cfg core.Config, progs []*program.Program, windowed bool) (e *Entry, hit bool, err error) {
	if c == nil {
		res, counters, _, err := c.RunMachine(cfg, progs, windowed, nil)
		if err != nil {
			return nil, false, err
		}
		return simulated(key, res, counters), false, nil
	}
	// Fast path: already stored. Counted as an ordinary cache hit.
	if e, ok := c.Get(key); ok {
		c.hits.Add(1)
		return e, true, nil
	}
	e, shared, err := c.sf.do(key, func() (*Entry, error) {
		// Re-check under flight leadership: another leader may have
		// finished and stored between our Get miss and acquiring the
		// flight, and a hit here must not be double-simulated.
		if e, ok := c.Get(key); ok {
			c.hits.Add(1)
			return e, nil
		}
		c.misses.Add(1)
		c.simulations.Add(1)
		r, err := simulate(cfg, progs, windowed, nil)
		if err != nil {
			return nil, err
		}
		cm := r.Metrics.CounterMap()
		if err := c.Put(key, cfg, progs, r, cm); err != nil {
			c.errs.Add(1) // store failure degrades to "no caching"
		}
		return simulated(key, r, cm), nil
	})
	if err != nil {
		return nil, false, err
	}
	if shared {
		c.sfHits.Add(1)
	}
	return e, shared, nil
}

// simulated wraps a result that was not answered by the view.
func simulated(key string, res *core.Result, counters map[string]uint64) *Entry {
	return &Entry{Schema: core.SchemaVersion, Key: key, Result: res, Counters: counters}
}
