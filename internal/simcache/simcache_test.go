package simcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vca/internal/core"
	"vca/internal/emu"
	"vca/internal/isa"
	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/workload"
)

// testStop keeps the 15×3 matrix fast while still exercising the real
// pipeline (window traffic, cache misses, branch recovery all happen
// well before 2000 commits).
const testStop = 2000

type model struct {
	name     string
	rename   core.RenameModel
	window   core.WindowModel
	physRegs int
	abi      minic.ABI
}

var testModels = []model{
	{"baseline", core.RenameConventional, core.WindowNone, 256, minic.ABIFlat},
	{"conv-window", core.RenameConventional, core.WindowConventional, 288, minic.ABIWindowed},
	{"vca-window", core.RenameVCA, core.WindowVCA, 128, minic.ABIWindowed},
}

func jobFor(t *testing.T, b workload.Benchmark, m model) (core.Config, []*program.Program) {
	t.Helper()
	cfg := core.DefaultConfig(m.rename, m.window, 1, m.physRegs)
	cfg.StopAfter = testStop
	cfg.MaxCycles = 1 << 34
	prog, err := b.Build(m.abi)
	if err != nil {
		t.Fatalf("%s/%s: %v", b.Name, m.name, err)
	}
	return cfg, []*program.Program{prog}
}

// resultJSON is the bit-identity witness: the canonical serialized form
// of a result + counters.
func resultJSON(t *testing.T, res *core.Result, counters map[string]uint64) string {
	t.Helper()
	b, err := payloadBytes(res, counters)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCacheRoundTrip is the `make cache-smoke` target: across the full
// suite — all 15 workloads × 3 machine models — a cache hit must return
// a bit-identical core.Result and counter map compared with the cold
// simulation that populated it.
func TestCacheRoundTrip(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	benches := workload.All()
	if len(benches) != 15 {
		t.Fatalf("suite has %d workloads, want 15", len(benches))
	}
	for _, m := range testModels {
		for _, b := range benches {
			cfg, progs := jobFor(t, b, m)
			cold, hit, err := cache.Run(cfg, progs, nil)
			if err != nil {
				t.Fatalf("%s/%s cold: %v", b.Name, m.name, err)
			}
			if hit {
				t.Fatalf("%s/%s: first run cannot hit", b.Name, m.name)
			}
			warm, hit, err := cache.Run(cfg, progs, nil)
			if err != nil {
				t.Fatalf("%s/%s warm: %v", b.Name, m.name, err)
			}
			if !hit {
				t.Fatalf("%s/%s: second run must hit", b.Name, m.name)
			}
			if warm.Result.Metrics != nil {
				t.Fatalf("%s/%s: a replayed result must not carry a live registry", b.Name, m.name)
			}
			if got, want := resultJSON(t, warm.Result, warm.Counters), resultJSON(t, cold.Result, cold.Counters); got != want {
				t.Errorf("%s/%s: hit is not bit-identical to the cold run\ngot:  %s\nwant: %s",
					b.Name, m.name, got, want)
			}
		}
	}
	s := cache.Stats()
	want := uint64(len(benches) * len(testModels))
	if s.Hits != want || s.Misses != want || s.Corrupt != 0 {
		t.Errorf("stats %v, want %d hits and %d misses", s, want, want)
	}
}

// TestKeyInvalidation: any semantic change — a config field, a program
// byte, the simulator schema — must change the key and force a miss.
func TestKeyInvalidation(t *testing.T) {
	b, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	cfg, progs := jobFor(t, b, testModels[0])
	base := Key(cfg, progs)

	t.Run("config field", func(t *testing.T) {
		c := cfg
		c.Hier.DL1Ports = 1
		if Key(c, progs) == base {
			t.Error("DL1Ports change did not change the key")
		}
		c = cfg
		c.StopAfter++
		if Key(c, progs) == base {
			t.Error("StopAfter change did not change the key")
		}
	})
	t.Run("observability field", func(t *testing.T) {
		c := cfg
		c.CoSim = !c.CoSim
		c.Check = true
		if Key(c, progs) != base {
			t.Error("observability toggles must not change the key")
		}
	})
	t.Run("program byte", func(t *testing.T) {
		// Field-wise clone: Program embeds a sync.Once decode cache and
		// must not be copied by value.
		cloneOf := func(p *program.Program) program.Program {
			return program.Program{
				Name: p.Name, TextBase: p.TextBase, Text: p.Text,
				DataBase: p.DataBase, Data: p.Data, Entry: p.Entry,
				Symbols: p.Symbols,
			}
		}
		clone := cloneOf(progs[0])
		clone.Text = append([]isa.Word{}, progs[0].Text...)
		clone.Text[len(clone.Text)/2] ^= 1
		if Key(cfg, []*program.Program{&clone}) == base {
			t.Error("text change did not change the key")
		}
		clone = cloneOf(progs[0])
		clone.Data = append([]byte{}, progs[0].Data...)
		if len(clone.Data) == 0 {
			clone.Data = []byte{1}
		} else {
			clone.Data[0] ^= 1
		}
		if Key(cfg, []*program.Program{&clone}) == base {
			t.Error("data change did not change the key")
		}
	})
	t.Run("program order and count", func(t *testing.T) {
		mesa, _ := workload.ByName("mesa")
		p2, err := mesa.Build(testModels[0].abi)
		if err != nil {
			t.Fatal(err)
		}
		pair := Key(cfg, []*program.Program{progs[0], p2})
		if pair == base {
			t.Error("program count did not change the key")
		}
		if Key(cfg, []*program.Program{p2, progs[0]}) == pair {
			t.Error("program order did not change the key")
		}
	})
}

// TestSchemaBumpForcesMiss simulates a simulator-semantics change: an
// entry recorded under a different schema version must not be trusted.
func TestSchemaBumpForcesMiss(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("twolf")
	cfg, progs := jobFor(t, b, testModels[0])
	if _, _, err := cache.Run(cfg, progs, nil); err != nil {
		t.Fatal(err)
	}
	key := Key(cfg, progs)

	// Rewrite the stored entry as if an older simulator had written it.
	path := cache.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	e.Schema = core.SchemaVersion - 1
	out, _ := json.Marshal(&e)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := cache.Get(key); ok {
		t.Fatal("stale-schema entry must miss")
	}
	if _, hit, err := cache.Run(cfg, progs, nil); err != nil || hit {
		t.Fatalf("stale-schema entry must re-simulate (hit=%v err=%v)", hit, err)
	}
}

// TestCorruptEntryResimulated: a damaged cache file is detected by the
// payload checksum, discarded, and re-simulated — never trusted.
func TestCorruptEntryResimulated(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("gcc_expr")
	cfg, progs := jobFor(t, b, testModels[0])
	ref, _, err := cache.Run(cfg, progs, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(cfg, progs)
	path := cache.entryPath(key)

	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bit flip": func(b []byte) []byte {
			out := append([]byte{}, b...)
			// Flip inside the payload (past the header fields) so the
			// JSON still parses but the checksum catches it.
			for i := len(out) / 2; i < len(out); i++ {
				if out[i] >= '1' && out[i] <= '8' {
					out[i]++
					return out
				}
			}
			t.Fatal("no digit to flip")
			return out
		},
		"not JSON": func([]byte) []byte { return []byte("ceci n'est pas un résultat") },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				// Re-populate (previous subtest discarded the entry).
				if _, _, err := cache.Run(cfg, progs, nil); err != nil {
					t.Fatal(err)
				}
				raw, err = os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			before := cache.Stats().Corrupt
			e, hit, err := cache.Run(cfg, progs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Fatal("corrupted entry served as a hit")
			}
			if cache.Stats().Corrupt <= before {
				t.Error("corruption not counted")
			}
			if resultJSON(t, e.Result, e.Counters) != resultJSON(t, ref.Result, ref.Counters) {
				t.Error("re-simulated result differs from the original run")
			}
		})
	}
}

// TestResumeAfterInterrupt: a sweep killed mid-run must resume from the
// cells already on disk — re-running recomputes only what is missing.
func TestResumeAfterInterrupt(t *testing.T) {
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	benches := workload.All()[:8]
	m := testModels[0]
	runAll := func(c *Cache, interruptAt int) error {
		return Runner{Jobs: 1}.Run(len(benches), func(i int) error {
			if i == interruptAt {
				return errors.New("simulated interrupt")
			}
			cfg, progs := jobFor(t, benches[i], m)
			_, _, err := c.Run(cfg, progs, nil)
			return err
		})
	}
	// First pass dies at cell 4. Early-stop dispatch is best-effort:
	// cells 0–3 always complete first (one worker, in order), and at
	// most one already-dispatched later cell may slip through before
	// the stop lands — but never all of them.
	if err := runAll(cache, 4); err == nil {
		t.Fatal("interrupt did not surface")
	}
	stored := cache.Stats().Stores
	if stored < 4 || stored >= uint64(len(benches)) {
		t.Fatalf("interrupted pass stored %d cells, want 4..%d", stored, len(benches)-1)
	}

	// A fresh process (new cache handle on the same directory) resumes:
	// every completed cell hits, only the missing ones simulate.
	resumed, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := runAll(resumed, -1); err != nil {
		t.Fatal(err)
	}
	want := Stats{
		Hits:        stored,
		Misses:      uint64(len(benches)) - stored,
		Stores:      uint64(len(benches)) - stored,
		Simulations: uint64(len(benches)) - stored,
	}
	if s := resumed.Stats(); s != want {
		t.Fatalf("resume stats %v, want %v", s, want)
	}
}

// TestNilCacheBypasses: a nil handle means "disabled", not "broken".
func TestNilCacheBypasses(t *testing.T) {
	var c *Cache
	b, _ := workload.ByName("parser")
	cfg, progs := jobFor(t, b, testModels[0])
	e, hit, err := c.Run(cfg, progs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit || e.Result == nil || e.Result.Metrics == nil || len(e.Counters) == 0 {
		t.Fatalf("nil cache must simulate directly (hit=%v)", hit)
	}
	if c.Stats() != (Stats{}) || c.Len() != 0 || c.Dir() != "" {
		t.Error("nil cache must report zero state")
	}
}

// TestEntryProvenance: every stored key's entry file is its provenance
// record, carrying the schema and config fingerprint that produced it.
// Len counts entry files only: not checkpoints, temp files left by a
// crash, or a legacy index.json.
func TestEntryProvenance(t *testing.T) {
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("gap")
	cfg, progs := jobFor(t, b, testModels[2])
	if _, _, err := cache.Run(cfg, progs, nil); err != nil {
		t.Fatal(err)
	}
	key := Key(cfg, progs)
	raw, err := os.ReadFile(cache.entryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	var e Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if e.Schema != core.SchemaVersion || e.Config != cfg.Fingerprint() ||
		!strings.HasPrefix(e.Programs, "gap") || e.Result == nil || e.Result.Cycles == 0 {
		t.Errorf("bad provenance: schema=%d config=%.16s… programs=%q", e.Schema, e.Config, e.Programs)
	}

	// Files beside the entry that are not entries: a legacy index, a
	// checkpoint, and temp files of an interrupted store holding a
	// complete entry.
	others := map[string][]byte{
		"index.json":          []byte(`{"` + key + `":{"schema":1}}`),
		"ck-" + key + ".json": []byte("{}"),
		"put-123456":          raw,
		"index-123456":        raw,
	}
	for name, b := range others {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Errorf("reopened store has %d entries, want 1", re.Len())
	}
	for _, tmp := range []string{"put-123456", "index-123456"} {
		if _, ok := re.Get(tmp); ok {
			t.Errorf("temp file %s served as an entry", tmp)
		}
	}

	if err := re.Clear(); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 0 {
		t.Error("Clear left entries")
	}
	if _, ok := re.Get(key); ok {
		t.Error("Clear left a readable entry")
	}
	for _, name := range []string{"index.json", "ck-" + key + ".json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("Clear left %s: %v", name, err)
		}
	}
}

// TestSharedDirectoryConsistent: two handles on one directory storing
// disjoint keys concurrently lose nothing — a later Open counts every
// entry, and every one verifies.
func TestSharedDirectoryConsistent(t *testing.T) {
	dir := t.TempDir()
	seed, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("mesa")
	cfg, progs := jobFor(t, b, testModels[0])
	if _, _, err := seed.Run(cfg, progs, nil); err != nil {
		t.Fatal(err)
	}
	e, ok := seed.Get(Key(cfg, progs))
	if !ok {
		t.Fatal("seed entry missed")
	}

	const handles, perHandle = 2, 25
	var wg sync.WaitGroup
	errs := make(chan error, handles)
	for h := 0; h < handles; h++ {
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perHandle; i++ {
				if err := c.Put(fmt.Sprintf("h%d-%d", h, i), cfg, progs, e.Result, e.Counters); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	all, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := all.Len(), handles*perHandle; got != want {
		t.Errorf("reopened shared store has %d entries, want %d", got, want)
	}
	for h := 0; h < handles; h++ {
		for i := 0; i < perHandle; i++ {
			if _, ok := all.Get(fmt.Sprintf("h%d-%d", h, i)); !ok {
				t.Errorf("entry h%d-%d does not verify", h, i)
			}
		}
	}
	if s := all.Stats(); s.Corrupt != 0 {
		t.Errorf("%d entries failed verification", s.Corrupt)
	}
}

func TestMetricsRegistryExport(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("mesa")
	cfg, progs := jobFor(t, b, testModels[0])
	for i := 0; i < 3; i++ {
		if _, _, err := cache.Run(cfg, progs, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := cache.MetricsRegistry().CounterMap()
	want := map[string]uint64{
		"simcache.hits": 2, "simcache.misses": 1, "simcache.stores": 1,
		"simcache.simulations": 1,
		"simcache.corrupt":     0, "simcache.errors": 0, "simcache.sf_hits": 0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported counters %v, want %v", got, want)
	}
}

// TestSimulationsMatchMisses pins the service-accounting invariant the
// counterpoint cache-misses-eq-simulations predicate sweeps for: every
// cache miss starts exactly one detailed simulation, across runs from
// reset, from a checkpoint and given an all-nil checkpoint slice — and
// hits start none.
func TestSimulationsMatchMisses(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("mesa")
	cfg, progs := jobFor(t, b, testModels[0])

	// Miss then hit from reset.
	for i := 0; i < 2; i++ {
		if _, _, err := cache.Run(cfg, progs, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Miss then hit from a checkpoint (different key: the starting
	// state).
	ck := fastCheckpoint(t, b, testModels[0], 5000)
	for i := 0; i < 2; i++ {
		if _, _, err := cache.Run(cfg, progs, []*emu.Checkpoint{ck}); err != nil {
			t.Fatal(err)
		}
	}
	// Miss then hit given all-nil checkpoints: a cold start, keyed like
	// the plain Key (different key here: deeper stop budget).
	cfg3 := cfg
	cfg3.StopAfter = cfg.StopAfter + 2000
	for i := 0; i < 2; i++ {
		if _, _, err := cache.Run(cfg3, progs, make([]*emu.Checkpoint, len(progs))); err != nil {
			t.Fatal(err)
		}
	}

	s := cache.Stats()
	if s.Simulations != s.Misses {
		t.Errorf("simulations %d != misses %d", s.Simulations, s.Misses)
	}
	if s.Misses != 3 || s.Hits != 3 {
		t.Errorf("traffic misses=%d hits=%d, want 3/3", s.Misses, s.Hits)
	}
}

// TestKeyGolden pins simcache.Key for two workloads under a baseline
// and a windowed VCA configuration. A changed key silently orphans
// every entry of every persistent store while every in-process round
// trip still passes, so the hex values are recorded, not generated.
// Re-record them (and TestKeyFromGolden's) only for a change that adds
// or removes a core.Config field or bumps core.SchemaVersion, and say
// so where the change is described.
func TestKeyGolden(t *testing.T) {
	for _, g := range []struct{ bench, model, key string }{
		{"crafty", "baseline", "5e6bc02641c5b87517c7690f645ae535bdc8237c957d5b1fc17ec60491d55025"},
		{"crafty", "vca-window", "fe4831ac2bc106ae819c1cb3ed77a4f4730d12f247a0cd31f9c7e382c06c2752"},
		{"gcc_expr", "baseline", "2b16702a3b181e2da06a2bea6e77359b7f477f9014ea7fdefee22e815f69ad18"},
		{"gcc_expr", "vca-window", "3747c2a7f5111ffbcd7ad1696872e6ade72ed2859b5c1b3ceedb5196c2aab566"},
	} {
		b, err := workload.ByName(g.bench)
		if err != nil {
			t.Fatal(err)
		}
		m := testModels[0]
		if g.model == testModels[2].name {
			m = testModels[2]
		}
		cfg, progs := jobFor(t, b, m)
		if got := Key(cfg, progs); got != g.key {
			t.Errorf("%s/%s: key %s, want %s", g.bench, g.model, got, g.key)
		}
	}
}
