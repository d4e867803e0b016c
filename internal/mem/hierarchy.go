package mem

// HierarchyConfig describes the full memory system of Table 1.
type HierarchyConfig struct {
	IL1      CacheConfig
	DL1      CacheConfig
	L2       CacheConfig
	MemLat   int
	DL1Ports int // read/write ports on the data cache (2 baseline, 1 in Fig. 6)
}

// DefaultHierarchyConfig returns the paper's Table 1 memory parameters:
// 64K 4-way DL1 with 3-cycle hits, 64K 4-way IL1 with 1-cycle hits,
// 1M 4-way L2 with 15-cycle hits, 250-cycle memory, 2 DL1 ports.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		IL1:      CacheConfig{Name: "IL1", SizeBytes: 64 << 10, Ways: 4, BlockBits: 6, HitLat: 1},
		DL1:      CacheConfig{Name: "DL1", SizeBytes: 64 << 10, Ways: 4, BlockBits: 6, HitLat: 3},
		L2:       CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 4, BlockBits: 6, HitLat: 15},
		MemLat:   250,
		DL1Ports: 2,
	}
}

// Hierarchy bundles the cache levels over a shared L2.
type Hierarchy struct {
	cfg HierarchyConfig
	IL1 *Cache
	DL1 *Cache
	L2  *Cache
}

// NewHierarchy builds the three-level system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	l2 := NewCache(cfg.L2, nil, cfg.MemLat)
	return &Hierarchy{
		cfg: cfg,
		IL1: NewCache(cfg.IL1, l2, 0),
		DL1: NewCache(cfg.DL1, l2, 0),
		L2:  l2,
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// DataAccess performs a timing access through DL1 and returns its latency.
func (h *Hierarchy) DataAccess(addr uint64, write bool, cause AccessCause) int {
	return h.DL1.Access(addr, write, cause)
}

// InstFetch performs a timing fetch through IL1 and returns its latency.
func (h *Hierarchy) InstFetch(addr uint64) int {
	return h.IL1.Access(addr, false, CauseProgram)
}

// CheckInvariants validates every level's directory structure (see
// Cache.CheckInvariants).
func (h *Hierarchy) CheckInvariants() error {
	for _, c := range []*Cache{h.IL1, h.DL1, h.L2} {
		if err := c.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}
