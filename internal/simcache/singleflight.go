package simcache

import "sync"

// flight is one in-progress simulation that concurrent callers of Run
// coalesce onto. The leader closes done after publishing e/err;
// followers block on done and share the published values. A simulated
// result is never modified, so sharing the entry across callers is
// safe.
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
