package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// eagerCache is the cache as it was before sets were materialised on
// first touch: every set's ways allocated up front as [set][way]. It
// stays here as the oracle the lazy directory must agree with, access
// for access.
type eagerCache struct {
	cfg    CacheConfig
	lines  [][]cacheLine
	tick   uint64
	next   *eagerCache
	memLat int
	Stats  CacheStats

	blockShift uint
	setShift   uint
	setMask    uint64
}

func newEagerCache(cfg CacheConfig, next *eagerCache, memLat int) *eagerCache {
	sets := cfg.SizeBytes / ((1 << cfg.BlockBits) * cfg.Ways)
	lines := make([][]cacheLine, sets)
	backing := make([]cacheLine, sets*cfg.Ways)
	for i := range lines {
		lines[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &eagerCache{
		cfg: cfg, lines: lines, next: next, memLat: memLat,
		blockShift: uint(cfg.BlockBits),
		setShift:   uint(len2(sets)),
		setMask:    uint64(sets - 1),
	}
}

func (c *eagerCache) CheckInvariants() error {
	for set, ways := range c.lines {
		for i := range ways {
			if !ways[i].valid {
				continue
			}
			if ways[i].lru > c.tick {
				return fmt.Errorf("mem: %s set %d way %d has LRU stamp %d beyond clock %d",
					c.cfg.Name, set, i, ways[i].lru, c.tick)
			}
			for j := i + 1; j < len(ways); j++ {
				if ways[j].valid && ways[j].tag == ways[i].tag {
					return fmt.Errorf("mem: %s set %d holds tag %#x in ways %d and %d",
						c.cfg.Name, set, ways[i].tag, i, j)
				}
			}
		}
	}
	return nil
}

func (c *eagerCache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.blockShift
	return int(blk & c.setMask), blk >> c.setShift
}

func (c *eagerCache) Access(addr uint64, write bool, cause AccessCause) int {
	c.tick++
	c.Stats.Accesses[cause]++
	set, tag := c.index(addr)
	ways := c.lines[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.tick
			if write {
				ways[i].dirty = true
			}
			return c.cfg.HitLat
		}
	}
	c.Stats.Misses[cause]++
	lat := c.cfg.HitLat + c.memLat
	if c.next != nil {
		lat = c.cfg.HitLat + c.next.Access(addr, false, cause)
	}
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	if ways[victim].valid && ways[victim].dirty {
		c.Stats.Writebacks++
		if c.next != nil {
			c.next.countWriteback((ways[victim].tag<<c.setShift | uint64(set)) << c.blockShift)
		}
	}
	ways[victim] = cacheLine{tag: tag, valid: true, dirty: write, lru: c.tick}
	return lat
}

func (c *eagerCache) countWriteback(addr uint64) {
	c.tick++
	set, tag := c.index(addr)
	ways := c.lines[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].dirty = true
			ways[i].lru = c.tick
			return
		}
	}
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = cacheLine{tag: tag, valid: true, dirty: true, lru: c.tick}
}

func (c *eagerCache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, w := range c.lines[set] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

func (c *eagerCache) Flush() {
	for s := range c.lines {
		for w := range c.lines[s] {
			if c.lines[s][w].valid && c.lines[s][w].dirty {
				c.Stats.Writebacks++
			}
			c.lines[s][w] = cacheLine{}
		}
	}
}

// lockstep pairs production cache levels with their eager oracles,
// level by level (the first pair is the level accesses enter at).
type lockstep struct {
	t     *testing.T
	lazy  []*Cache
	eager []*eagerCache
}

// compare fails on the first level whose stats or invariant verdict
// differ, or that disagrees on whether probe is resident.
func (ls *lockstep) compare(step int, probe uint64) {
	ls.t.Helper()
	for i, c := range ls.lazy {
		o := ls.eager[i]
		if c.Stats != o.Stats {
			ls.t.Fatalf("step %d: %s stats %+v, eager oracle %+v", step, c.cfg.Name, c.Stats, o.Stats)
		}
		if got, want := fmt.Sprint(c.CheckInvariants()), fmt.Sprint(o.CheckInvariants()); got != want {
			ls.t.Fatalf("step %d: %s invariants %s, eager oracle %s", step, c.cfg.Name, got, want)
		}
		if got, want := c.Contains(probe), o.Contains(probe); got != want {
			ls.t.Fatalf("step %d: %s Contains(%#x) = %v, eager oracle %v", step, c.cfg.Name, probe, got, want)
		}
	}
}

// run drives steps seeded random accesses through the entry level
// entry[k] (drawn uniformly), comparing latency after each access and
// every level's state at every step. Addresses mix a hot working set,
// which hits, with blocks drawn from span, which conflict and evict.
func (ls *lockstep) run(seed int64, steps int, span uint64, entries []int) {
	ls.t.Helper()
	rng := rand.New(rand.NewSource(seed))
	block := uint64(1) << ls.lazy[0].cfg.BlockBits
	addr := func() uint64 {
		if rng.Intn(2) == 0 {
			return uint64(rng.Intn(64))*block + uint64(rng.Intn(int(block)))
		}
		return uint64(rng.Int63n(int64(span)))*block + uint64(rng.Intn(int(block)))
	}
	for step := 0; step < steps; step++ {
		a := addr()
		write := rng.Intn(3) == 0
		cause := AccessCause(rng.Intn(int(NumCauses)))
		k := entries[rng.Intn(len(entries))]
		if got, want := ls.lazy[k].Access(a, write, cause), ls.eager[k].Access(a, write, cause); got != want {
			ls.t.Fatalf("step %d: %s access %#x latency %d, eager oracle %d", step, ls.lazy[k].cfg.Name, a, got, want)
		}
		ls.compare(step, addr())
		if !ls.lazy[k].Contains(a) {
			ls.t.Fatalf("step %d: %s does not hold %#x right after accessing it", step, ls.lazy[k].cfg.Name, a)
		}
	}
	for i, c := range ls.lazy {
		c.Flush()
		ls.eager[i].Flush()
	}
	ls.compare(steps, addr())
}

// TestCacheMatchesEagerOracle checks the lazily materialised directory
// against the eager one over seeded random read/write streams: each
// Table 1 geometry alone, a 2-set × 2-way cache, and the Table 1
// IL1/DL1→L2 chain, where dirty evictions write back across levels.
func TestCacheMatchesEagerOracle(t *testing.T) {
	h := DefaultHierarchyConfig()
	single := []CacheConfig{
		h.IL1, h.DL1, h.L2,
		{Name: "tiny", SizeBytes: 2 * 2 * 64, Ways: 2, BlockBits: 6, HitLat: 2},
	}
	for _, cfg := range single {
		t.Run(cfg.Name, func(t *testing.T) {
			sets := uint64(cfg.SizeBytes >> cfg.BlockBits / cfg.Ways)
			ls := &lockstep{t: t,
				lazy:  []*Cache{NewCache(cfg, nil, h.MemLat)},
				eager: []*eagerCache{newEagerCache(cfg, nil, h.MemLat)},
			}
			ls.run(1, 3000, 2*sets*uint64(cfg.Ways), []int{0})
			if got := ls.lazy[0].Stats.Writebacks; got == 0 {
				t.Error("no dirty evictions: the stream never exercised write-back")
			}
		})
	}
	t.Run("chain", func(t *testing.T) {
		hier := NewHierarchy(h)
		l2 := newEagerCache(h.L2, nil, h.MemLat)
		ls := &lockstep{t: t,
			lazy:  []*Cache{hier.IL1, hier.DL1, hier.L2},
			eager: []*eagerCache{newEagerCache(h.IL1, l2, 0), newEagerCache(h.DL1, l2, 0), l2},
		}
		// Twice the L2's lines, so the L2 evicts blocks the L1s still
		// hold dirty and their write-backs allocate below.
		ls.run(7, 6000, 2*uint64(h.L2.SizeBytes>>h.L2.BlockBits), []int{0, 1})
		if hier.L2.Stats.Writebacks == 0 || hier.DL1.Stats.Writebacks == 0 {
			t.Errorf("write-backs DL1 %d, L2 %d: the stream never crossed levels dirty",
				hier.DL1.Stats.Writebacks, hier.L2.Stats.Writebacks)
		}
	})
}

// TestCacheContainsDoesNotMaterialise pins that probing an untouched set
// allocates no directory storage.
func TestCacheContainsDoesNotMaterialise(t *testing.T) {
	c := NewCache(DefaultHierarchyConfig().L2, nil, 250)
	for a := uint64(0); a < 1<<20; a += 64 {
		if c.Contains(a) {
			t.Fatalf("empty cache holds %#x", a)
		}
	}
	if len(c.arena) != 0 {
		t.Errorf("Contains materialised %d lines", len(c.arena))
	}
	c.Access(0x40, false, CauseProgram)
	if got, want := len(c.arena), c.cfg.Ways; got != want {
		t.Errorf("one access materialised %d lines, want one set of %d", got, want)
	}
}
