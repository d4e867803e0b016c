package simcache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunnerDeterministicMultiFailure is the parallelFor regression
// test: several jobs fail concurrently — released by a barrier only
// once every one of them is in flight, so all of them always run — and
// the aggregated error must be byte-identical on every iteration, with
// the lowest failing index first. The old parallelFor reported
// whichever failing job finished first and dropped the rest. Run under
// -race (make test-race) this is the acceptance gate's "100 consecutive
// -race iterations with a stable error string".
func TestRunnerDeterministicMultiFailure(t *testing.T) {
	const n = 8
	failing := map[int]bool{2: true, 5: true, 6: true}
	want := "job 2: boom 2\njob 5: boom 5\njob 6: boom 6"

	for iter := 0; iter < 100; iter++ {
		var started sync.WaitGroup
		started.Add(n)
		release := make(chan struct{})
		go func() {
			started.Wait() // all n jobs in flight — none can be skipped
			close(release)
		}()
		r := Runner{Jobs: n, KeepGoing: true}
		err := r.Run(n, func(i int) error {
			started.Done()
			<-release
			if failing[i] {
				// Fail in reverse index order to tempt a
				// first-finisher-wins implementation.
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		if got := err.Error(); got != want {
			t.Fatalf("iteration %d: unstable error string:\ngot:  %q\nwant: %q", iter, got, want)
		}
	}
}

func TestRunnerLowestIndexWinsWithEarlyStop(t *testing.T) {
	// Even with early-stop dispatch (KeepGoing=false), the primary
	// error must be the lowest failing index: index 1 fails slowly,
	// index 3 fails instantly and would "win" a finish-order race.
	for iter := 0; iter < 25; iter++ {
		r := Runner{Jobs: 4}
		err := r.Run(4, func(i int) error {
			switch i {
			case 1:
				time.Sleep(5 * time.Millisecond)
				return errors.New("slow failure")
			case 3:
				return errors.New("fast failure")
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		first := strings.SplitN(err.Error(), "\n", 2)[0]
		if first != "job 1: slow failure" {
			t.Fatalf("iteration %d: primary error %q, want job 1's", iter, first)
		}
	}
}

// TestRunnerStopsDispatchOnError preserves the PR-1 guarantee: after a
// failure, no new jobs start (a long matrix does not run to the end on
// a broken configuration).
func TestRunnerStopsDispatchOnError(t *testing.T) {
	const n = 10_000
	var calls atomic.Int64
	err := Runner{}.Run(n, func(i int) error {
		calls.Add(1)
		time.Sleep(100 * time.Microsecond)
		return errors.New("boom")
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if got := calls.Load(); got > n/2 {
		t.Fatalf("dispatched %d of %d jobs after the first error; dispatch should have stopped", got, n)
	}
}

func TestRunnerRecoversPanics(t *testing.T) {
	var ran atomic.Int64
	err := Runner{Jobs: 2, KeepGoing: true}.Run(4, func(i int) error {
		ran.Add(1)
		if i == 1 {
			panic("config exploded")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic must surface as an error")
	}
	if !strings.Contains(err.Error(), "job 1: panic: config exploded") {
		t.Errorf("error does not identify the panicking job: %v", err)
	}
	if got := ran.Load(); got != 4 {
		t.Errorf("KeepGoing ran %d of 4 jobs", got)
	}
}

func TestRunnerAllOK(t *testing.T) {
	var sum atomic.Int64
	if err := (Runner{}).Run(100, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("jobs ran %d (sum), want all 100", sum.Load())
	}
}
