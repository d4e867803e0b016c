package server

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vca/internal/simcache"
)

// resetKeyMemo empties the process-wide key memo, so a test sees each
// of its cells derived first and then remembered.
func resetKeyMemo() {
	keyMemo.mu.Lock()
	keyMemo.m = nil
	keyMemo.mu.Unlock()
}

func memoHolds(c Cell) bool {
	keyMemo.mu.RLock()
	defer keyMemo.mu.RUnlock()
	_, ok := keyMemo.m[cellID{c.Arch, c.Benchmarks, c.PhysRegs, c.DL1Ports, c.StopAfter}]
	return ok
}

// freshKey is the content address derived without the memo: build the
// cell, then hash the build.
func freshKey(t *testing.T, c Cell) (string, bool) {
	t.Helper()
	b, ok, err := buildCell(c)
	if err != nil {
		t.Fatalf("%+v: buildCell: %v", c, err)
	}
	if !ok {
		return "", false
	}
	return simcache.Key(b.cfg, b.progs), true
}

// TestCellKeyMatchesFreshKey: the memoized content address, on the
// cell's first call and on a repeat, is the key a fresh build hashes to,
// over every arch × {64,128,192,256} registers × {1,2} ports × a one-
// and a two-benchmark list × several stop_after budgets. No-Baseline
// cells are remembered as such; cells that fail to build answer their
// error every time and are not remembered. A cell differing only in
// Index shares its twin's entry.
func TestCellKeyMatchesFreshKey(t *testing.T) {
	resetKeyMemo()
	noBaseline := 0
	for _, arch := range ArchNames() {
		for _, regs := range []int{64, 128, 192, 256} {
			for _, ports := range []int{1, 2} {
				for _, bench := range []string{"crafty", "gcc_expr, mesa"} {
					for _, stop := range []uint64{0, 2000, 123457} {
						c := Cell{Index: 7, Arch: arch, Benchmarks: bench, PhysRegs: regs, DL1Ports: ports, StopAfter: stop}
						want, wantOK := freshKey(t, c)
						if !wantOK {
							noBaseline++
						}
						for call, cell := range []Cell{c, c, {Index: 99, Arch: arch, Benchmarks: bench, PhysRegs: regs, DL1Ports: ports, StopAfter: stop}} {
							key, ok, err := CellKey(cell)
							if err != nil || key != want || ok != wantOK {
								t.Fatalf("%+v call %d: CellKey = %q, %v, %v; fresh key %q, %v", cell, call, key, ok, err, want, wantOK)
							}
							if !memoHolds(cell) {
								t.Fatalf("%+v call %d: not remembered", cell, call)
							}
						}
					}
				}
			}
		}
	}
	if noBaseline == 0 {
		t.Error("no No-Baseline cell covered")
	}
	for _, c := range []Cell{
		{Arch: "pdp11", Benchmarks: "crafty", PhysRegs: 256, DL1Ports: 2},
		{Arch: "baseline", Benchmarks: "crafty,doom", PhysRegs: 256, DL1Ports: 2},
	} {
		for call := 0; call < 2; call++ {
			_, _, want := buildCell(c)
			key, ok, err := CellKey(c)
			if err == nil || want == nil || err.Error() != want.Error() || key != "" || ok {
				t.Fatalf("%+v call %d: CellKey = %q, %v, %v; buildCell error %v", c, call, key, ok, err, want)
			}
			if memoHolds(c) {
				t.Fatalf("%+v: a build error was remembered", c)
			}
		}
	}
}

// TestCellIDCoversCell fails when Cell gains a field the memo's key
// does not carry: two cells differing only in it would share one
// content address. Index is the one field a key may ignore.
func TestCellIDCoversCell(t *testing.T) {
	cell, id := reflect.TypeOf(Cell{}), reflect.TypeOf(cellID{})
	carried := 0
	for i := 0; i < cell.NumField(); i++ {
		f := cell.Field(i)
		if f.Name == "Index" {
			continue
		}
		g, ok := id.FieldByName(f.Name)
		if !ok || g.Type != f.Type {
			t.Errorf("Cell.%s (%s) is not carried by cellID", f.Name, f.Type)
		}
		carried++
	}
	if carried != id.NumField() {
		t.Errorf("cellID has %d fields, Cell %d besides Index", id.NumField(), carried)
	}
}

// TestKeyMemoBound: the memo never holds more than keyMemoMax cells;
// the cell that finds it full empties it and is remembered alone.
func TestKeyMemoBound(t *testing.T) {
	resetKeyMemo()
	c := Cell{Arch: "baseline", Benchmarks: "crafty", PhysRegs: 256, DL1Ports: 2}
	for i := 0; i < keyMemoMax+10; i++ {
		c.StopAfter = uint64(1000 + i)
		if _, _, err := CellKey(c); err != nil {
			t.Fatal(err)
		}
		keyMemo.mu.RLock()
		n := len(keyMemo.m)
		keyMemo.mu.RUnlock()
		want := i%keyMemoMax + 1
		if n != want {
			t.Fatalf("after %d distinct cells the memo holds %d, want %d", i+1, n, want)
		}
	}
}

// legacyRunCell answers a cell the way RunCell did before the memo and
// the view-first lookup: build, hash, then look up or simulate.
func legacyRunCell(cache *simcache.Cache, c Cell) CellResult {
	out := CellResult{Cell: c}
	b, ok, err := buildCell(c)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	if !ok {
		return out
	}
	key := simcache.Key(b.cfg, b.progs)
	e, _, err := cache.Run(b.cfg, b.progs, nil)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.CacheKey = key
	out.answer(e)
	return out
}

// accountingCells mixes valid one- and two-thread cells, a duplicate, a
// No-Baseline cell and a cell that fails to build.
func accountingCells() []Cell {
	return []Cell{
		{Arch: "baseline", Benchmarks: "crafty", PhysRegs: 256, DL1Ports: 2, StopAfter: 2000},
		{Arch: "vca-windowed", Benchmarks: "gcc_expr,mesa", PhysRegs: 192, DL1Ports: 1, StopAfter: 1500},
		{Arch: "vca-flat", Benchmarks: "gap", PhysRegs: 128, DL1Ports: 2, StopAfter: 1800},
		{Index: 3, Arch: "baseline", Benchmarks: "crafty", PhysRegs: 256, DL1Ports: 2, StopAfter: 2000},
		{Arch: "conv-windowed", Benchmarks: "crafty", PhysRegs: 64, DL1Ports: 2, StopAfter: 2000},
		{Arch: "baseline", Benchmarks: "doom", PhysRegs: 256, DL1Ports: 2},
	}
}

// TestLocalRunAccounting: answering cells through the worker executor
// counts hits, misses, simulations and singleflight hits exactly as the
// build-then-look-up path did, and streams the same lines. Both run the
// same passes over twin stores: a cold pass, a pass answered by entry
// files, a pass answered by the view, a reopened store, and a burst of
// concurrent identical never-run cells.
func TestLocalRunAccounting(t *testing.T) {
	resetKeyMemo()
	newDir, legacyDir := t.TempDir(), t.TempDir()
	open := func(dir string) *simcache.Cache {
		c, err := simcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cells := accountingCells()
	pass := func(step string, cache, legacy *simcache.Cache, cells []Cell) {
		t.Helper()
		for _, c := range cells {
			got := ndjsonLine(t, local{cache: cache}.Run(context.Background(), nil, c))
			want := ndjsonLine(t, legacyRunCell(legacy, c))
			if string(got) != string(want) {
				t.Fatalf("%s, cell %+v:\nlocal.Run: %s\nlegacy:    %s", step, c, got, want)
			}
		}
		if got, want := cache.Stats(), legacy.Stats(); got != want {
			t.Fatalf("%s: stats %+v, build-then-look-up path %+v", step, got, want)
		}
	}
	cache, legacy := open(newDir), open(legacyDir)
	pass("cold", cache, legacy, cells)
	if s := cache.Stats(); s.Misses != 3 || s.Hits != 1 || s.Simulations != s.Misses {
		t.Fatalf("cold pass stats %+v, want 3 misses = simulations and the duplicate's hit", s)
	}
	pass("entry files", cache, legacy, cells)
	pass("view", cache, legacy, cells)
	cache, legacy = open(newDir), open(legacyDir)
	pass("reopened", cache, legacy, cells)
	pass("reopened view", cache, legacy, cells)

	// G concurrent askers of one never-run cell: one simulates, and the
	// rest are singleflight followers or hits, split by timing.
	const G = 8
	burst := Cell{Arch: "vca-flat", Benchmarks: "twolf", PhysRegs: 256, DL1Ports: 2, StopAfter: 3000}
	before := cache.Stats()
	var wg sync.WaitGroup
	lines := make([]string, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lines[g] = string(ndjsonLine(t, local{cache: cache}.Run(context.Background(), nil, burst)))
		}(g)
	}
	wg.Wait()
	s := cache.Stats()
	if s.Misses-before.Misses != 1 || s.Simulations != s.Misses ||
		(s.Hits-before.Hits)+(s.SFHits-before.SFHits) != G-1 {
		t.Fatalf("burst of %d: stats %+v (before %+v), want one miss = simulation and %d hits or followers", G, s, before, G-1)
	}
	for g := range lines {
		if lines[g] != lines[0] {
			t.Fatalf("burst answer %d differs:\n%s\n%s", g, lines[g], lines[0])
		}
	}
}

// TestViewHitAllocs bounds what a replayed cell allocates through the
// worker executor: its Outputs slice, and nothing else (no goroutine,
// channel or build).
func TestViewHitAllocs(t *testing.T) {
	cache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := Cell{Arch: "vca-windowed", Benchmarks: "crafty", PhysRegs: 256, DL1Ports: 2, StopAfter: 2000}
	for i := 0; i < 2; i++ { // simulate, then fill the view from the entry file
		if r := RunCell(cache, c); !r.Valid {
			t.Fatalf("%+v", r)
		}
	}
	exec, ctx := local{cache: cache}, context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if r := exec.Run(ctx, nil, c); !r.Valid || r.countersJSON == nil {
			t.Fatalf("not a view hit: %+v", r)
		}
	})
	if allocs > 1 {
		t.Errorf("a view hit allocates %.1f times, want at most 1", allocs)
	}
}

// TestAbandonOnlySimulatingCells: a cell that must simulate is still
// reported abandoned when its job's deadline passes first, while a cell
// the view holds is answered whatever the context says: it never waits.
func TestAbandonOnlySimulatingCells(t *testing.T) {
	cache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exec := local{cache: cache}
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	c := Cell{Arch: "baseline", Benchmarks: "gap", PhysRegs: 256, DL1Ports: 2, StopAfter: 20000}
	res := exec.Run(expired, nil, c)
	if res.Valid || !strings.HasPrefix(res.Error, "cell abandoned after") || !strings.Contains(res.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("simulating cell past its deadline answered %+v, want abandoned", res)
	}
	// The abandoned simulation finishes on its own and stores its entry.
	waitUntil(t, 30*time.Second, "the abandoned simulation's store", func() bool { return cache.Stats().Stores == 1 })
	RunCell(cache, c) // the entry file fills the view
	if res := exec.Run(expired, nil, c); !res.Valid || res.Error != "" {
		t.Fatalf("view hit under an expired context answered %+v, want the stored result", res)
	}
}
