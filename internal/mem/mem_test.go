package mem

import (
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 8, 0x0102030405060708)
	if got := m.Read(0x1000, 8); got != 0x0102030405060708 {
		t.Errorf("read back %#x", got)
	}
	if got := m.Read(0x1000, 4); got != 0x05060708 {
		t.Errorf("partial read %#x", got)
	}
	if got := m.ByteAt(0x1007); got != 0x01 {
		t.Errorf("little-endian top byte %#x", got)
	}
	if got := m.Read(0x9999_0000, 8); got != 0 {
		t.Errorf("unwritten memory should be zero, got %#x", got)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3) // straddles page boundary
	m.Write(addr, 8, 0xDEADBEEFCAFEF00D)
	if got := m.Read(addr, 8); got != 0xDEADBEEFCAFEF00D {
		t.Errorf("straddled read %#x", got)
	}
}

// TestMemoryWord pins Word's contract: a pointer only for an 8-byte
// access inside the page the last access used, aliasing the bytes Read
// and Write see; nil otherwise, never installing a page itself.
func TestMemoryWord(t *testing.T) {
	m := NewMemory()
	const base = 0x5000
	if m.Word(base) != nil {
		t.Fatal("Word hit on an empty memory")
	}
	m.Write(base+8, 8, 0x1122334455667788)
	w := m.Word(base + 8)
	if w == nil || w[0] != 0x88 || w[7] != 0x11 {
		t.Fatalf("Word after a write to its page = %v", w)
	}
	w[0] = 0x99
	if got := m.Read(base+8, 8); got != 0x1122334455667799 {
		t.Fatalf("store through Word not visible to Read: %#x", got)
	}
	for _, addr := range []uint64{base + pageSize - 7, base + pageSize, base - 8} {
		if m.Word(addr) != nil {
			t.Errorf("Word(%#x) hit outside the cached page", addr)
		}
	}
	if m.Word(base+pageSize-8) == nil {
		t.Error("Word missed the last whole word of the cached page")
	}
}

func TestMemoryBytesAndClone(t *testing.T) {
	m := NewMemory()
	m.WriteBytes(0x2000, []byte("hello"))
	if string(m.ReadBytes(0x2000, 5)) != "hello" {
		t.Error("byte round trip failed")
	}
	c := m.Clone()
	c.SetByte(0x2000, 'H')
	if m.ByteAt(0x2000) != 'h' {
		t.Error("clone aliases original")
	}
}

// Property: a write followed by a read at any address/size returns the
// value truncated to size bytes.
func TestQuickMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, sizeRaw uint8, v uint64) bool {
		size := int(sizeRaw%8) + 1
		addr %= 1 << 40
		m.Write(addr, size, v)
		want := v
		if size < 8 {
			want &= 1<<(8*size) - 1
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func testCache(ways int) *Cache {
	return NewCache(CacheConfig{Name: "T", SizeBytes: 1024, Ways: ways, BlockBits: 6, HitLat: 3}, nil, 100)
}

func TestCacheHitMiss(t *testing.T) {
	c := testCache(4) // 4 sets x 4 ways x 64B
	if lat := c.Access(0x100, false, CauseProgram); lat != 103 {
		t.Errorf("cold miss latency %d, want 103", lat)
	}
	if lat := c.Access(0x104, false, CauseProgram); lat != 3 {
		t.Errorf("same-block hit latency %d, want 3", lat)
	}
	if c.Stats.TotalAccesses() != 2 || c.Stats.TotalMisses() != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if c.Stats.MissRate() != 0.5 {
		t.Errorf("miss rate %v", c.Stats.MissRate())
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c := testCache(2) // 8 sets, 2 ways
	// Three blocks mapping to the same set (set 0): addresses k*8*64.
	a, b, d := uint64(0), uint64(8*64), uint64(16*64)
	c.Access(a, false, CauseProgram)
	c.Access(b, false, CauseProgram)
	c.Access(a, false, CauseProgram) // a most recent
	c.Access(d, false, CauseProgram) // evicts b (LRU)
	if !c.Contains(a) || !c.Contains(d) {
		t.Error("a and d should be resident")
	}
	if c.Contains(b) {
		t.Error("b should have been evicted as LRU")
	}
}

func TestCacheWritebackCounted(t *testing.T) {
	c := testCache(1)                    // direct-mapped: 16 sets
	c.Access(0, true, CauseProgram)      // dirty
	c.Access(16*64, false, CauseProgram) // evicts dirty block
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// Clean eviction: no additional writeback.
	c.Access(32*64, false, CauseProgram)
	if c.Stats.Writebacks != 1 {
		t.Errorf("clean eviction counted as writeback")
	}
}

func TestCacheCauseAccounting(t *testing.T) {
	c := testCache(4)
	c.Access(0, false, CauseProgram)
	c.Access(64, true, CauseSpillFill)
	c.Access(128, true, CauseSpillFill)
	c.Access(192, false, CauseWindowTrap)
	if c.Stats.Accesses[CauseProgram] != 1 ||
		c.Stats.Accesses[CauseSpillFill] != 2 ||
		c.Stats.Accesses[CauseWindowTrap] != 1 {
		t.Errorf("cause accounting wrong: %+v", c.Stats.Accesses)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Cold: DL1 miss + L2 miss + memory.
	lat := h.DataAccess(0x8000, false, CauseProgram)
	if lat != 3+15+250 {
		t.Errorf("cold access latency %d, want %d", lat, 3+15+250)
	}
	// Now resident in both levels.
	if lat := h.DataAccess(0x8000, false, CauseProgram); lat != 3 {
		t.Errorf("DL1 hit latency %d", lat)
	}
	// Instruction fetch through IL1 hits the L2 block already fetched?
	// Different block: cold path costs IL1+L2+mem.
	if lat := h.InstFetch(0x20_0000); lat != 1+15+250 {
		t.Errorf("cold fetch latency %d", lat)
	}
	if lat := h.InstFetch(0x20_0000); lat != 1 {
		t.Errorf("warm fetch latency %d", lat)
	}
	// IL1 and DL1 share the L2: a data access to the fetched block hits L2.
	if lat := h.DataAccess(0x20_0000, false, CauseProgram); lat != 3+15 {
		t.Errorf("L2-shared access latency %d, want 18", lat)
	}
}

func TestCacheFlush(t *testing.T) {
	c := testCache(4)
	c.Access(0, true, CauseProgram)
	c.Access(64, false, CauseProgram)
	c.Flush()
	if c.Contains(0) || c.Contains(64) {
		t.Error("flush left lines resident")
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("flush should write back the dirty line once, got %d", c.Stats.Writebacks)
	}
}

// Property: after accessing address A, Contains(A) always holds, and the
// number of resident blocks in a set never exceeds the way count.
func TestQuickCacheResidency(t *testing.T) {
	c := testCache(2)
	f := func(addrs []uint16) bool {
		for _, a16 := range addrs {
			a := uint64(a16) << 3
			c.Access(a, a16%3 == 0, CauseProgram)
			if !c.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad geometry")
		}
	}()
	NewCache(CacheConfig{Name: "bad", SizeBytes: 1000, Ways: 3, BlockBits: 6, HitLat: 1}, nil, 10)
}
