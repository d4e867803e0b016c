package simcache

import (
	"os"
	"reflect"
	"testing"

	"vca/internal/workload"
)

// viewLen returns the number of keys the verified view holds.
func viewLen(c *Cache) int {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	return len(c.view)
}

func inView(c *Cache, key string) bool {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	_, ok := c.view[key]
	return ok
}

// TestViewReplayAccounting replays K cells N times through the shared
// entry point. Traffic counts are those of a cache without a view (one
// miss, simulation and store per cell, then one hit per replay); the
// view is filled by the first verified disk read, not by Put; and every
// replay of a key shares one decoded entry that holds no live registry
// and none of the file's provenance fields.
func TestViewReplayAccounting(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const K, N = 3, 4
	var keys []string
	for _, name := range []string{"crafty", "mesa", "twolf"} {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, progs, windowed := jobFor(t, b, testModels[0])
		key := Key(cfg, progs, windowed)
		keys = append(keys, key)
		if _, _, hit, err := c.RunMachineShared(key, cfg, progs, windowed); err != nil || hit {
			t.Fatalf("%s first run: hit=%v err=%v", name, hit, err)
		}
		if inView(c, key) {
			t.Fatalf("%s: Put filled the view", name)
		}
		var first map[string]uint64
		for i := 0; i < N; i++ {
			res, counters, hit, err := c.RunMachineShared(key, cfg, progs, windowed)
			if err != nil || !hit {
				t.Fatalf("%s replay %d: hit=%v err=%v", name, i, hit, err)
			}
			if res.Metrics != nil {
				t.Fatalf("%s replay %d: result carries a live registry", name, i)
			}
			if i == 0 {
				first = counters
			} else if reflect.ValueOf(counters).UnsafePointer() != reflect.ValueOf(first).UnsafePointer() {
				t.Fatalf("%s replay %d: counters were decoded again instead of shared", name, i)
			}
		}
	}
	want := Stats{Hits: K * N, Misses: K, Stores: K, Simulations: K}
	if s := c.Stats(); s != want {
		t.Errorf("stats %+v, want %+v", s, want)
	}
	if n := viewLen(c); n != K {
		t.Fatalf("view holds %d keys, want %d", n, K)
	}
	for _, key := range keys {
		e := c.view[key]
		if e.Key != key || e.Result == nil || e.Result.Metrics != nil || e.Config != "" || e.Checksum != "" {
			t.Errorf("view entry %.12s holds more or less than key, result and counters: %+v", key, e)
		}
	}
}

// TestViewRemovals: discardCorrupt and Clear take entries out of the
// view, so a removed key is looked up on disk again.
func TestViewRemovals(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("gap")
	cfg, progs, windowed := jobFor(t, b, testModels[0])
	key := Key(cfg, progs, windowed)
	fill := func() {
		t.Helper()
		if _, _, _, err := c.RunMachine(cfg, progs, windowed); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); !ok || !inView(c, key) {
			t.Fatal("a verified disk read did not fill the view")
		}
	}

	fill()
	c.discardCorrupt(key)
	if inView(c, key) {
		t.Error("discardCorrupt left the key in the view")
	}
	if _, err := os.Stat(c.entryPath(key)); !os.IsNotExist(err) {
		t.Errorf("discardCorrupt left the entry file: %v", err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("a discarded key still hits")
	}

	fill()
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if n := viewLen(c); n != 0 {
		t.Errorf("Clear left %d view entries", n)
	}
	if _, ok := c.Get(key); ok {
		t.Error("a cleared key still hits")
	}
}
