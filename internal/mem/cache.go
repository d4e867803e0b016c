package mem

import "fmt"

// AccessCause tags why a data-cache access happened. Figure 5 and the
// §4.3 discussion depend on separating ordinary program loads/stores from
// the register traffic added by VCA spill/fill and by conventional
// register-window overflow/underflow handling.
type AccessCause uint8

const (
	CauseProgram    AccessCause = iota // loads/stores in the binary
	CauseSpillFill                     // VCA ASTQ spill and fill operations
	CauseWindowTrap                    // conventional window overflow/underflow copying
	NumCauses
)

func (c AccessCause) String() string {
	switch c {
	case CauseProgram:
		return "program"
	case CauseSpillFill:
		return "spill/fill"
	case CauseWindowTrap:
		return "window-trap"
	}
	return "?"
}

// CacheConfig shapes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Ways      int
	BlockBits int // log2 of block size
	HitLat    int // cycles on hit
}

// CacheStats counts traffic at one level.
type CacheStats struct {
	Accesses   [NumCauses]uint64
	Misses     [NumCauses]uint64
	Writebacks uint64
}

// TotalAccesses sums accesses across causes.
func (s *CacheStats) TotalAccesses() uint64 {
	var t uint64
	for _, v := range s.Accesses {
		t += v
	}
	return t
}

// TotalMisses sums misses across causes.
func (s *CacheStats) TotalMisses() uint64 {
	var t uint64
	for _, v := range s.Misses {
		t += v
	}
	return t
}

// MissRate returns misses/accesses (0 when idle).
func (s *CacheStats) MissRate() float64 {
	a := s.TotalAccesses()
	if a == 0 {
		return 0
	}
	return float64(s.TotalMisses()) / float64(a)
}

type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // larger = more recently used
}

// Cache is one timing-only set-associative write-back, write-allocate
// cache level with true-LRU replacement.
//
// The directory holds storage only for the sets a run touches: slot maps
// each set to its ways in the arena (1 + the set's index there; 0 = never
// touched, which reads as all ways invalid). A short run on a 1 MB L2
// thus allocates a few kilobytes instead of the whole directory.
type Cache struct {
	cfg    CacheConfig
	sets   int
	slot   []int32     // per set: 1 + materialised-set index, 0 = untouched
	arena  []cacheLine // materialised sets, Ways lines each, in first-touch order
	tick   uint64
	next   *Cache // nil = backed by main memory
	memLat int
	Stats  CacheStats

	// Geometry derived once in NewCache; index/victimAddr are on the
	// per-access hot path and must not recompute log2(sets).
	blockShift uint
	setShift   uint
	setMask    uint64
}

// NewCache builds a cache level. next may be nil, in which case misses cost
// memLat. The configuration must describe a power-of-two geometry.
func NewCache(cfg CacheConfig, next *Cache, memLat int) *Cache {
	block := 1 << cfg.BlockBits
	if cfg.SizeBytes%(block*cfg.Ways) != 0 {
		panic(fmt.Sprintf("mem: cache %s: size %d not divisible by ways*block", cfg.Name, cfg.SizeBytes))
	}
	sets := cfg.SizeBytes / (block * cfg.Ways)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %s: set count %d not a power of two", cfg.Name, sets))
	}
	return &Cache{
		cfg: cfg, sets: sets, slot: make([]int32, sets), next: next, memLat: memLat,
		blockShift: uint(cfg.BlockBits),
		setShift:   uint(len2(sets)),
		setMask:    uint64(sets - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// CheckInvariants validates the directory's structural invariants: no
// set may hold two valid lines with the same tag (a duplicate makes hits
// nondeterministic in way order), and LRU stamps may not exceed the
// cache's access clock. Used by the core's opt-in invariant checker.
func (c *Cache) CheckInvariants() error {
	for set := range c.slot {
		ways := c.touched(set)
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

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.blockShift
	return int(blk & c.setMask), blk >> c.setShift
}

// touched returns a set's ways, or nil when the set was never touched.
func (c *Cache) touched(set int) []cacheLine {
	s := int(c.slot[set])
	if s == 0 {
		return nil
	}
	w := c.cfg.Ways
	return c.arena[(s-1)*w : s*w : s*w]
}

// ways returns a set's ways, materialising the set (all ways invalid) on
// first touch. The slice aliases the arena, which a later
// materialisation may move, so it must not be held across one.
func (c *Cache) ways(set int) []cacheLine {
	if c.slot[set] == 0 {
		c.arena = append(c.arena, make([]cacheLine, c.cfg.Ways)...)
		c.slot[set] = int32(len(c.arena) / c.cfg.Ways)
	}
	return c.touched(set)
}

func len2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Access performs a timing access, recursing to the next level on a miss.
// It returns the total latency in cycles.
func (c *Cache) Access(addr uint64, write bool, cause AccessCause) int {
	c.tick++
	c.Stats.Accesses[cause]++
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.tick
			if write {
				ways[i].dirty = true
			}
			return c.cfg.HitLat
		}
	}
	// Miss: fetch from below, replace LRU way.
	c.Stats.Misses[cause]++
	lat := c.cfg.HitLat + c.fill(addr, cause)
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
		// Write-back traffic to the next level is timing-overlapped with
		// the demand fill (modeled as free, standard for write buffers),
		// but still counted at the next level as a write access.
		if c.next != nil {
			c.next.countWriteback(c.victimAddr(set, ways[victim].tag))
		}
	}
	ways[victim] = cacheLine{tag: tag, valid: true, dirty: write, lru: c.tick}
	return lat
}

func (c *Cache) victimAddr(set int, tag uint64) uint64 {
	return (tag<<c.setShift | uint64(set)) << c.blockShift
}

// countWriteback records an eviction write arriving from the level above
// without charging demand latency. It updates (or allocates) the line.
func (c *Cache) countWriteback(addr uint64) {
	c.tick++
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].dirty = true
			ways[i].lru = c.tick
			return
		}
	}
	// Victim buffer bypass: line not present below; treat as allocated.
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

// fill models the latency of obtaining the block from the level below.
func (c *Cache) fill(addr uint64, cause AccessCause) int {
	if c.next == nil {
		return c.memLat
	}
	return c.next.Access(addr, false, cause)
}

// Contains reports whether addr's block is currently resident (testing
// hook).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, w := range c.touched(set) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates all lines (counts dirty lines as writebacks).
func (c *Cache) Flush() {
	for set := range c.slot {
		ways := c.touched(set)
		for w := range ways {
			if ways[w].valid && ways[w].dirty {
				c.Stats.Writebacks++
			}
			ways[w] = cacheLine{}
		}
	}
}
