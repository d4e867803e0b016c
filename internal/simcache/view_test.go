package simcache

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"unsafe"

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
		if e, hit, err := c.RunMachineShared(key, cfg, progs, windowed); err != nil || hit || e.CountersJSON() != nil {
			t.Fatalf("%s first run: hit=%v err=%v, simulated answer carries encoded counters: %v", name, hit, err, e.CountersJSON() != nil)
		}
		if inView(c, key) {
			t.Fatalf("%s: Put filled the view", name)
		}
		var first *Entry
		for i := 0; i < N; i++ {
			e, hit, err := c.RunMachineShared(key, cfg, progs, windowed)
			if err != nil || !hit {
				t.Fatalf("%s replay %d: hit=%v err=%v", name, i, hit, err)
			}
			if e.Result.Metrics != nil {
				t.Fatalf("%s replay %d: result carries a live registry", name, i)
			}
			if i == 0 {
				first = e
				want, err := json.Marshal(e.Counters)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(e.CountersJSON(), want) {
					t.Fatalf("%s: view's encoded counters differ from json.Marshal of its map", name)
				}
			} else if reflect.ValueOf(e.Counters).UnsafePointer() != reflect.ValueOf(first.Counters).UnsafePointer() ||
				&e.CountersJSON()[0] != &first.CountersJSON()[0] {
				t.Fatalf("%s replay %d: counters were decoded or encoded again instead of shared", name, i)
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
	// The view keeps one copy of each counter name across its entries.
	shared := map[string]*byte{}
	for name := range c.view[keys[0]].Counters {
		shared[name] = unsafe.StringData(name)
	}
	for _, key := range keys[1:] {
		for name := range c.view[key].Counters {
			if p, ok := shared[name]; ok && p != unsafe.StringData(name) {
				t.Fatalf("view entry %.12s holds its own copy of counter name %q", key, name)
			}
		}
	}
	for _, key := range keys {
		e := c.view[key]
		if e.Key != key || e.Result == nil || e.Result.Metrics != nil || e.Config != "" || e.Checksum != "" || e.countersJSON == nil {
			t.Errorf("view entry %.12s holds more or less than key, result, counters and their encoding: %+v", key, e)
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
		if _, _, _, err := c.RunMachine(cfg, progs, windowed, nil); err != nil {
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
