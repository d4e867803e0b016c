package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"vca/internal/simcache"
	"vca/internal/workload"
)

// ndjsonLine encodes a result the way the results stream does.
func ndjsonLine(t testing.TB, r CellResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// viewTestCells is every benchmark on one baseline and one VCA config.
func viewTestCells() []Cell {
	var cells []Cell
	for _, arch := range []string{"baseline", "vca-windowed"} {
		for _, b := range workload.All() {
			cells = append(cells, Cell{Index: len(cells), Arch: arch, Benchmarks: b.Name, PhysRegs: 256, DL1Ports: 2, StopAfter: 2000})
		}
	}
	return cells
}

// TestViewHitMatchesColdHit: a hit answered from a cache's in-memory
// view is indistinguishable from a cold hit, the first verified read of
// the entry file by a freshly opened cache over the same directory —
// DeepEqual result and counters and a byte-identical NDJSON line, both
// as encoding/json renders the result and as the results stream
// renders it from the view's encoded counters — for all 15 benchmarks
// on a baseline and a VCA config. A nil cache simulates the cell and
// streams the same line.
func TestViewHitMatchesColdHit(t *testing.T) {
	dir := t.TempDir()
	writer, err := simcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := simcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	le := newLineEncoder()
	cells := viewTestCells()
	if len(cells) != 30 {
		t.Fatalf("%d cells, want 15 benchmarks × 2 configs", len(cells))
	}
	for _, c := range cells {
		if r := RunCell(writer, c); r.Error != "" || !r.Valid {
			t.Fatalf("cell %d populate: %+v", c.Index, r)
		}
		RunCell(reader, c) // cold hit: fills reader's view

		fresh, err := simcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		coldLine := ndjsonLine(t, RunCell(fresh, c))
		viewHit := RunCell(reader, c)
		viewLine := ndjsonLine(t, viewHit)
		if !bytes.Equal(viewLine, coldLine) {
			t.Fatalf("cell %d: view-hit line differs from cold-hit line\nview: %s\ncold: %s", c.Index, viewLine, coldLine)
		}
		// The stream splices the view's encoded counters instead of
		// encoding the map; its line must be the cold line all the same.
		if viewHit.countersJSON == nil {
			t.Fatalf("cell %d: a view hit carries no encoded counters", c.Index)
		}
		streamed, err := le.line(&viewHit)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed, coldLine) {
			t.Fatalf("cell %d: streamed view-hit line differs from cold-hit line\nstream: %s\ncold:   %s", c.Index, streamed, coldLine)
		}

		key, _, err := CellKey(c)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err = simcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cold, ok1 := fresh.Get(key)
		view, ok2 := reader.Get(key)
		if !ok1 || !ok2 {
			t.Fatalf("cell %d: cold hit %v, view hit %v", c.Index, ok1, ok2)
		}
		if !reflect.DeepEqual(view.Result, cold.Result) || !reflect.DeepEqual(view.Counters, cold.Counters) {
			t.Fatalf("cell %d: view entry differs from a cold read", c.Index)
		}
		if c.Index == 0 {
			if direct := ndjsonLine(t, RunCell(nil, c)); !bytes.Equal(direct, viewLine) {
				t.Fatalf("cell 0: nil-cache line differs from the cached line\nnil:  %s\nview: %s", direct, viewLine)
			}
		}
	}
	want := simcache.Stats{Hits: 2 * uint64(len(cells))}
	if s := reader.Stats(); s != want {
		t.Errorf("reader stats %+v, want %+v", s, want)
	}
}

// TestViewConcurrentReaders has eight goroutines answer and encode the
// same cached cells at once. Every answer shares the view's entries, so
// under -race this proves that nothing on the hit path writes them.
func TestViewConcurrentReaders(t *testing.T) {
	cache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := viewTestCells()[:4]
	want := make([][]byte, len(cells))
	for i, c := range cells {
		if r := RunCell(cache, c); r.Error != "" {
			t.Fatalf("cell %d: %s", i, r.Error)
		}
		want[i] = ndjsonLine(t, RunCell(cache, c))
	}
	const G, rounds = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				i := (g + k) % len(cells)
				b, err := json.Marshal(RunCell(cache, cells[i]))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(append(b, '\n'), want[i]) {
					t.Errorf("goroutine %d: cell %d answered differently", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := cache.Stats(); s.Misses != uint64(len(cells)) || s.Simulations != s.Misses {
		t.Errorf("stats %+v: concurrent replays must not simulate", s)
	}
}
