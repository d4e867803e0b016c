package simcache

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// Runner executes independent, deterministic jobs across worker
// goroutines. It is the single dispatch layer of the experiment
// harness: internal/experiments' figure sweeps, the sweep service's
// cells (internal/server), the generated-cell sweep driver both the
// lockstep sweep and the counter-oracle hunt run on (verify.Sweep), and
// the counterpoint golden matrix that the counterpoint gate
// (internal/tools/counterpointgate) evaluates. Every sweep used to
// carry its own ad-hoc parallelFor with first-finisher-wins error
// reporting; the Runner replaces those with deterministic semantics.
//
// Error discipline: all job failures are collected and returned as one
// errors.Join in ascending job-index order, so the primary (first)
// error is always the lowest failing index — never whichever failing
// goroutine happened to finish first. Dispatch stops after the first
// observed failure (in-flight jobs finish; no new ones start) unless
// KeepGoing is set. Because jobs are dispatched in index order, the
// lowest failing index is always dispatched before dispatch can stop,
// so the primary error is deterministic even with early stop.
//
// A panicking job does not kill the harness: the panic is recovered and
// reported as that job's error (with its stack), so one pathological
// configuration becomes a failed cell instead of a dead sweep.
type Runner struct {
	// Jobs is the worker count; 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// KeepGoing dispatches every job even after failures, making the
	// full aggregated error deterministic (early stop only guarantees a
	// deterministic primary error).
	KeepGoing bool
}

// jobError wraps one job's failure with its index for deterministic
// ordering and reporting.
type jobError struct {
	index int
	err   error
}

func (e *jobError) Error() string { return fmt.Sprintf("job %d: %v", e.index, e.err) }
func (e *jobError) Unwrap() error { return e.err }

// Run executes fn(i) for i in [0,n) and returns the aggregated error
// (nil when every job succeeds). See the Runner doc comment for the
// dispatch and error-ordering contract.
func (r Runner) Run(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := r.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		fails  []*jobError
		failed atomic.Bool
	)
	record := func(i int, err error) {
		mu.Lock()
		fails = append(fails, &jobError{index: i, err: err})
		mu.Unlock()
		failed.Store(true)
	}

	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := protect(i, fn); err != nil {
					record(i, err)
				}
			}
		}()
	}
	for i := 0; i < n && (r.KeepGoing || !failed.Load()); i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	if len(fails) == 0 {
		return nil
	}
	slices.SortFunc(fails, func(a, b *jobError) int { return cmp.Compare(a.index, b.index) })
	errs := make([]error, len(fails))
	for i, f := range fails {
		errs[i] = f
	}
	return errors.Join(errs...)
}

// protect converts a panic in fn into an ordinary error carrying the
// panic value and stack.
func protect(i int, fn func(int) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return fn(i)
}
