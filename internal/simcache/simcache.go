// Package simcache memoizes cycle-level simulation results on disk and
// provides the unified job runner of the experiment harness.
//
// Every table and figure of the paper's evaluation is a reduction over
// independent simulation jobs (config, programs) → core.Result. Each
// job is content-addressed: the cache key is a SHA-256 over the
// canonicalized core.Config (Config.Fingerprint — every semantic field,
// no observability hooks), the exact program images (text words, data
// bytes, entry point, load bases), the windowed-ABI flag the config's
// window model implies, and core.SchemaVersion, which is bumped
// whenever simulator semantics change. A hit therefore can only ever
// return a result the current simulator would reproduce bit-for-bit;
// anything else — a config tweak, a program edit, a schema bump, a
// corrupted file — misses and re-simulates.
//
// Entries live under a cache directory (default .simcache/) as one
// JSON file per key, <key>.json, holding the full core.Result plus the
// flat event-counter map, protected by an embedded payload checksum.
// The entry file is also the key's provenance record: its schema,
// config fingerprint and program names sit beside the payload, and its
// mtime is the store time. Interrupted sweeps resume for free:
// completed cells are already on disk, so a re-run only simulates what
// is missing. Within one process, an entry is read and verified once;
// repeat lookups are answered from memory (Get).
//
// A Cache is safe for concurrent use and doubles as the shared store
// of the sweep service (internal/server, cmd/vcaserved). Every caller —
// the figure sweeps, the service, the counterpoint matrix, the vca
// facade — reaches the simulator through one method, Run, which
// coalesces concurrent identical jobs with singleflight: overlapping
// requests for the same content address pay for exactly one
// simulation (singleflight.go). Run also memoizes runs that start from
// checkpointed state images (vcasim -restore, the counterpoint gate's
// fast-forwarded cells): KeyFrom adds each image's content address to
// the key.
//
// EXPERIMENTS.md ("Result cache") documents key derivation,
// invalidation rules, and the cmd/experiments -cache* flags;
// docs/SERVICE.md documents the cache-sharing model of the service.
package simcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"vca/internal/core"
	"vca/internal/emu"
	"vca/internal/metrics"
	"vca/internal/program"
)

// Key returns the content address of one simulation job run from
// reset. Identical keys guarantee bit-identical simulation results
// under the current core.SchemaVersion.
//
// The program half of the derivation is each image's memoized
// program.Program.Digest, so repeat keys over the same images hash only
// the config fingerprint, which is appended straight into the hashed
// buffer.
func Key(cfg core.Config, progs []*program.Program) string {
	b := cfg.AppendFingerprint(append(make([]byte, 0, 2048), keyPrefix...))
	b = appendKeyPrograms(b, cfg.Window.Windowed(), len(progs))
	for _, p := range progs {
		b = appendKeyProgram(b, p.Digest())
	}
	return hashKey(b)
}

// KeyFrom extends Key with the identity of the checkpoints a run starts
// from, cks[i] being thread i's starting image: a memoized result is
// only reusable when the configuration, the programs, AND the exact
// injected starting state all match. A nil slice (or all-nil entries)
// is a run from reset and is keyed by the plain Key.
func KeyFrom(cfg core.Config, progs []*program.Program, cks []*emu.Checkpoint) (string, error) {
	key := Key(cfg, progs)
	if !slices.ContainsFunc(cks, func(ck *emu.Checkpoint) bool { return ck != nil }) {
		return key, nil
	}
	h := sha256.New()
	fmt.Fprintf(h, "base=%s\nrestores=%d\n", key, len(cks))
	for i, ck := range cks {
		if ck == nil {
			fmt.Fprintf(h, "%d=-\n", i)
			continue
		}
		addr, err := ck.ContentAddress()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%d=%s\n", i, addr)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// The hashed bytes of a key are, line by line: schema=<SchemaVersion>,
// config=<fingerprint>, windowed=<cfg.Window.Windowed()>,
// programs=<count>, and one program=<digest> per thread. TestKeyGolden
// pins them.
var keyPrefix = "schema=" + strconv.Itoa(core.SchemaVersion) + "\nconfig="

func appendKeyPrograms(b []byte, windowed bool, n int) []byte {
	b = strconv.AppendBool(append(b, "\nwindowed="...), windowed)
	return append(strconv.AppendInt(append(b, "\nprograms="...), int64(n), 10), '\n')
}

func appendKeyProgram(b []byte, digest string) []byte {
	return append(append(append(b, "program="...), digest...), '\n')
}

func hashKey(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Entry is one stored simulation result: the full core.Result (minus
// the live metrics registry) and the flat counter map, plus provenance
// and an integrity checksum over the payload.
//
// An entry the in-memory view answers (Get) also carries its counter
// map already encoded, so a service streaming the entry many times
// encodes the map once (CountersJSON).
type Entry struct {
	Schema   int               `json:"schema"`
	Key      string            `json:"key"`
	Config   string            `json:"config"`   // Config.Fingerprint at store time
	Programs string            `json:"programs"` // comma-joined program names
	Result   *core.Result      `json:"result"`
	Counters map[string]uint64 `json:"counters,omitempty"`
	Checksum string            `json:"checksum"` // SHA-256 of payloadBytes(Result, Counters)

	countersJSON []byte // json.Marshal(Counters), kept by the view
}

// CountersJSON returns json.Marshal(e.Counters) for an entry answered
// by Get, and nil for one just simulated. The bytes are shared with
// every other caller; do not modify them.
func (e *Entry) CountersJSON() []byte { return e.countersJSON }

// payloadBytes is the canonical byte form the checksum covers:
// encoding/json is deterministic over structs (declaration order) and
// maps (sorted keys).
func payloadBytes(res *core.Result, counters map[string]uint64) ([]byte, error) {
	return json.Marshal(struct {
		Result   *core.Result      `json:"result"`
		Counters map[string]uint64 `json:"counters,omitempty"`
	}{res, counters})
}

func checksum(res *core.Result, counters map[string]uint64) (string, error) {
	b, err := payloadBytes(res, counters)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Stats counts cache traffic since Open. A nil cache handle (caching
// disabled) counts nothing.
type Stats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Stores  uint64 `json:"stores"`
	Corrupt uint64 `json:"corrupt"` // entries that failed checksum/decode and were discarded
	Errors  uint64 `json:"errors"`  // I/O errors (treated as misses)

	// SFHits counts Run callers that coalesced onto another caller's
	// in-flight simulation (singleflight followers). A follower is
	// neither a disk hit nor a miss: total simulations == Misses, and
	// total answered jobs == Hits + Misses + SFHits.
	SFHits uint64 `json:"sf_hits,omitempty"`

	// Simulations counts detailed simulations the cache actually started
	// on behalf of Run misses. The singleflight invariant Misses ==
	// Simulations (every miss simulates exactly once, and nothing else
	// simulates) is asserted by the counterpoint predicate
	// cache-misses-eq-simulations.
	Simulations uint64 `json:"simulations,omitempty"`
}

// HitRate returns Hits/(Hits+Misses), 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is an on-disk, content-addressed store of simulation results.
// A nil *Cache is valid and means "caching disabled": Run simulates
// directly. Methods are safe for concurrent use by the Runner's
// workers.
type Cache struct {
	dir string

	hits, misses, stores, corrupt, errs atomic.Uint64
	sfHits                              atomic.Uint64
	simulations                         atomic.Uint64

	sf flightGroup // in-flight dedup for Run

	mu   sync.Mutex // guards keys
	keys map[string]struct{}

	// view answers repeat lookups from memory. It holds, per key, the
	// entry a disk read in this process verified (checksum, key and
	// schema), trimmed to Schema, Key, Result and Counters, plus the
	// counter map's encoding (Entry.CountersJSON). Only Get
	// fills it — never Put, whose simulated Result still carries a live
	// registry that pins its whole machine — and Clear and
	// discardCorrupt empty it. Its size is bounded by the distinct cells
	// this process has answered from disk. viewGen counts removals, so a
	// disk read that raced one does not put its entry back.
	viewMu  sync.Mutex
	view    map[string]*Entry
	viewGen uint64
	names   map[string]string // counter names the view's entries share (internNames)
}

// Open creates (if needed) and opens a cache directory, listing it once
// to learn the stored keys Len counts. Temp files, a legacy index.json
// and legacy checkpoint files (ck-*.json) are not entries.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	c := &Cache{dir: dir, keys: map[string]struct{}{}, view: map[string]*Entry{}, names: map[string]string{}}
	for _, e := range names {
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if ok && !e.IsDir() && !strings.HasPrefix(key, "ck-") && key != "index" {
			c.keys[key] = struct{}{}
		}
	}
	return c, nil
}

// Dir returns the cache directory ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Clear removes every *.json file: entries, a legacy index.json and
// legacy checkpoint files.
func (c *Cache) Clear() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.viewMu.Lock()
	c.view = map[string]*Entry{}
	c.viewGen++
	c.viewMu.Unlock()
	names, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	for _, e := range names {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		if err := os.Remove(filepath.Join(c.dir, e.Name())); err != nil {
			return fmt.Errorf("simcache: %w", err)
		}
	}
	c.keys = map[string]struct{}{}
	return nil
}

// Len returns the number of entries: those on disk at Open, plus this
// handle's stores, minus its discards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.keys)
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get loads the entry for key. ok=false on miss; a corrupted or
// schema-stale entry is removed and reported as a miss. Get does not
// touch the hit/miss statistics — Run owns those.
//
// The first Get of a key in this process reads and verifies its file;
// later ones return the same entry from memory. The returned entry
// carries Schema, Key, Result (with a nil Metrics registry), Counters
// and CountersJSON, and is shared by every caller: treat it, its
// Result, its Counters and their encoding as read-only.
func (c *Cache) Get(key string) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.viewMu.Lock()
	e, ok := c.view[key]
	gen := c.viewGen
	c.viewMu.Unlock()
	if ok {
		return e, true
	}
	if e, ok = c.read(key); !ok {
		return nil, false
	}
	cj, _ := json.Marshal(e.Counters) // a map of uint64 always encodes
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	if prev, ok := c.view[key]; ok {
		return prev, true // a concurrent Get got here first: share its entry
	}
	e = &Entry{Schema: e.Schema, Key: e.Key, Result: e.Result, Counters: c.internNames(e.Counters), countersJSON: cj}
	if c.viewGen == gen {
		c.view[key] = e
	}
	return e, true
}

// Cached answers key from the in-memory view alone, counting the hit
// Run would have counted. It never reads the disk: false means only
// that this process has not verified key's entry yet, and the caller
// goes on to Run, which counts the miss (or the hit its disk read
// finds). A nil cache has no view.
func (c *Cache) Cached(key string) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.viewMu.Lock()
	e, ok := c.view[key]
	c.viewMu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return e, ok
}

// internNames returns a copy of counters whose names are the view's
// shared copies. Every entry names nearly the same counters, so the
// view holds each name once rather than once per entry; that saving
// pays for the entry's encoded counters. Called with viewMu held.
func (c *Cache) internNames(counters map[string]uint64) map[string]uint64 {
	if counters == nil {
		return nil
	}
	out := make(map[string]uint64, len(counters))
	//lint:maporder fills a map, whose contents do not depend on the order
	for name, v := range counters {
		if shared, ok := c.names[name]; ok {
			name = shared
		} else {
			c.names[name] = name
		}
		out[name] = v
	}
	return out
}

// read loads and verifies key's entry file, discarding it when it fails
// any check.
func (c *Cache) read(key string) (*Entry, bool) {
	b, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		if !os.IsNotExist(err) {
			c.errs.Add(1)
		}
		return nil, false
	}
	var e Entry
	if err := json.Unmarshal(b, &e); err != nil {
		c.discardCorrupt(key)
		return nil, false
	}
	sum, err := checksum(e.Result, e.Counters)
	if err != nil || sum != e.Checksum || e.Key != key || e.Schema != core.SchemaVersion || e.Result == nil {
		c.discardCorrupt(key)
		return nil, false
	}
	return &e, true
}

func (c *Cache) discardCorrupt(key string) {
	c.corrupt.Add(1)
	c.viewMu.Lock()
	delete(c.view, key)
	c.viewGen++
	c.viewMu.Unlock()
	os.Remove(c.entryPath(key))
	c.mu.Lock()
	delete(c.keys, key)
	c.mu.Unlock()
}

// Put stores a result and its provenance under key (atomic write: temp
// file + rename).
func (c *Cache) Put(key string, cfg core.Config, progs []*program.Program, res *core.Result, counters map[string]uint64) error {
	if c == nil {
		return nil
	}
	sum, err := checksum(res, counters)
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	names := make([]string, len(progs))
	for i, p := range progs {
		names[i] = p.Name
	}
	e := Entry{
		Schema:   core.SchemaVersion,
		Key:      key,
		Config:   cfg.Fingerprint(),
		Programs: strings.Join(names, ","),
		Result:   res,
		Counters: counters,
		Checksum: sum,
	}
	b, err := json.MarshalIndent(&e, "", " ")
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("simcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("simcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.entryPath(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("simcache: %w", err)
	}
	c.stores.Add(1)
	c.mu.Lock()
	c.keys[key] = struct{}{}
	c.mu.Unlock()
	return nil
}

// Run is the memoized simulation entry point. It answers the job
// (cfg, progs) from the store when its content address (KeyFrom) is
// there, and otherwise builds the machine, runs it, stores the result
// and returns it. hit reports that this call did not simulate: the
// answer came from a stored entry or from another caller's flight.
//
// cks[i], when non-nil, is injected into thread i before the machine
// runs (core.Machine.InjectCheckpoint); a nil slice starts every thread
// from reset. The key covers the starting state, so a cached answer
// only ever matches the identical checkpoints.
//
// Every miss goes through the singleflight group: identical jobs that
// overlap in time pay for exactly one simulation. The leader simulates
// and stores; followers block and share its entry, counted as SFHits
// rather than cache hits.
//
// The answer is an Entry carrying Schema, Key, Result and Counters,
// shared with every other caller of the key: treat it as read-only. A
// stored answer is the view's entry (Get): its Result has a nil Metrics
// registry, and its CountersJSON is the counter map already encoded;
// callers needing a live registry (histograms, stats dumps) pass a nil
// cache. A nil cache simulates directly and returns the live result
// and its counter map, with an empty Key.
func (c *Cache) Run(cfg core.Config, progs []*program.Program, cks []*emu.Checkpoint) (e *Entry, hit bool, err error) {
	run := func(key string) (*Entry, error) {
		m, err := core.New(cfg, progs, cfg.Window.Windowed())
		if err != nil {
			return nil, err
		}
		for i, ck := range cks {
			if ck == nil {
				continue
			}
			if err := m.InjectCheckpoint(i, ck); err != nil {
				return nil, err
			}
		}
		res, err := m.Run()
		if err != nil {
			return nil, err
		}
		return &Entry{Schema: core.SchemaVersion, Key: key, Result: res, Counters: res.Metrics.CounterMap()}, nil
	}
	if c == nil {
		e, err := run("")
		return e, false, err
	}
	key, err := KeyFrom(cfg, progs, cks)
	if err != nil {
		return nil, false, fmt.Errorf("simcache: %w", err)
	}
	if e, ok := c.Get(key); ok {
		c.hits.Add(1)
		return e, true, nil
	}
	simulated := false
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
		simulated = true
		e, err := run(key)
		if err != nil {
			return nil, err
		}
		if err := c.Put(key, cfg, progs, e.Result, e.Counters); err != nil {
			c.errs.Add(1) // a store failure degrades to "no caching", not a harness error
		}
		return e, nil
	})
	if err != nil {
		return nil, false, err
	}
	if shared {
		c.sfHits.Add(1)
	}
	return e, !simulated, nil
}

// Stats returns a snapshot of the traffic counters (zero for nil).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Stores:      c.stores.Load(),
		Corrupt:     c.corrupt.Load(),
		Errors:      c.errs.Load(),
		SFHits:      c.sfHits.Load(),
		Simulations: c.simulations.Load(),
	}
}

// MetricsRegistry exports the traffic counters as a point-in-time
// internal/metrics registry (names simcache.*), the form the service's
// /metrics endpoint and the counterpoint golden matrix consume.
func (c *Cache) MetricsRegistry() *metrics.Registry {
	s := c.Stats()
	r := metrics.NewRegistry()
	add := func(name string, v uint64, desc string) {
		ctr := r.Counter("simcache."+name, "events", desc)
		ctr.Add(v)
	}
	add("hits", s.Hits, "simulation jobs answered from the result cache")
	add("misses", s.Misses, "simulation jobs that had to simulate")
	add("stores", s.Stores, "results written to the cache")
	add("corrupt", s.Corrupt, "cache entries discarded on checksum/decode failure")
	add("errors", s.Errors, "cache I/O errors (degraded to misses)")
	add("sf_hits", s.SFHits, "concurrent identical jobs coalesced onto one in-flight simulation")
	add("simulations", s.Simulations, "detailed simulations started for cache misses (invariant: == misses)")
	return r
}

// String renders the stats for the end-of-run summary line.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d stores, %d corrupt, %d errors (hit rate %.1f%%)",
		s.Hits, s.Misses, s.Stores, s.Corrupt, s.Errors, 100*s.HitRate())
}
