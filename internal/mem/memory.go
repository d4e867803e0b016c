// Package mem provides the simulated memory system: a sparse 64-bit
// physical memory holding all program data, and a timing-only
// set-associative write-back cache hierarchy (IL1/DL1/L2 + main memory)
// matching the paper's Table 1.
//
// The functional/timing split is deliberate: caches model latency and
// traffic only, while data always lives in Memory, so functional
// correctness never depends on cache state and the emulator, the
// detailed core, and co-simulation all read the same bytes. Memory is
// organized as sparse 4 KiB pages with a one-entry page cache and
// word-granular fast paths (see DESIGN.md §8).
//
// The hierarchy matters to the paper because VCA turns register
// pressure into memory traffic: spills and fills are ordinary data-cache
// accesses competing with program loads and stores for DL1 ports
// (§2.2.2). Every access is therefore tagged with an AccessCause —
// CauseProgram, CauseSpillFill (VCA ASTQ traffic), or CauseWindowTrap
// (the conventional window model's injected whole-window copies, §4.1) —
// and each cache level keeps per-cause access and miss counts. That
// split is exactly the decomposition of Figure 5 (data-cache accesses by
// source) and of the §4.3 SMT cache-traffic claims, and it is exported
// through the metrics registry as mem.<level>.accesses.<cause> /
// .misses.<cause> (metrics.go; catalogue in docs/OBSERVABILITY.md).
//
// The caches are blocking — no MSHRs, no miss merging: a miss's full
// latency is charged to the access that triggered it, and the simulated
// machine's only memory-level parallelism is across the DL1's ports.
// This is the paper's (and M5's default) level of memory-system detail;
// the relationships the figures depend on are traffic ratios, which
// blocking caches preserve.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// pageBits gives 4 KiB pages for the sparse memory map.
const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse little-endian byte-addressable memory. The zero value
// is ready to use; unwritten locations read as zero.
//
// The page map is consulted once per access, not once per byte: whole-word
// accesses that stay inside one page go through fixed-width fast paths,
// and a single-entry page cache (a software TLB) short-circuits the map
// lookup entirely for the common same-page-as-last-time case.
type Memory struct {
	pages map[uint64]*[pageSize]byte

	// Last-page cache. lastPage is nil until the first hit is installed;
	// it is only ever set alongside lastKey, so a key match with a non-nil
	// page is always valid.
	lastKey  uint64
	lastPage *[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	key := addr >> pageBits
	if m.lastPage != nil && key == m.lastKey {
		return m.lastPage
	}
	p := m.pages[key]
	if p == nil {
		if !create {
			return nil
		}
		p = new([pageSize]byte)
		m.pages[key] = p
	}
	m.lastKey, m.lastPage = key, p
	return p
}

// Word returns the 8 bytes at addr when they lie inside the page the
// last access used (the one-entry page cache), and nil otherwise. It is
// the hit case of an 8-byte Read or Write, small enough to inline into an
// interpreter loop; on nil the caller falls back to Read or Write, which
// refill the cache.
func (m *Memory) Word(addr uint64) *[8]byte {
	off := addr & (pageSize - 1)
	if addr>>pageBits != m.lastKey || m.lastPage == nil || off > pageSize-8 {
		return nil
	}
	return (*[8]byte)(m.lastPage[off : off+8])
}

// ByteAt returns the byte at addr.
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// SetByte stores one byte.
func (m *Memory) SetByte(addr uint64, v byte) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// Read loads size bytes little-endian (size 1–8). Accesses may straddle
// pages; those fall back to the byte loop.
func (m *Memory) Read(addr uint64, size int) uint64 {
	off := int(addr & (pageSize - 1))
	if off+size <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off : off+8])
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off : off+4]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off : off+2]))
		case 1:
			return uint64(p[off])
		default:
			var v uint64
			for i := 0; i < size; i++ {
				v |= uint64(p[off+i]) << (8 * i)
			}
			return v
		}
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores size bytes little-endian (size 1–8).
func (m *Memory) Write(addr uint64, size int, v uint64) {
	off := int(addr & (pageSize - 1))
	if off+size <= pageSize {
		p := m.page(addr, true)
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:off+8], v)
		case 4:
			binary.LittleEndian.PutUint32(p[off:off+4], uint32(v))
		case 2:
			binary.LittleEndian.PutUint16(p[off:off+2], uint16(v))
		case 1:
			p[off] = byte(v)
		default:
			for i := 0; i < size; i++ {
				p[off+i] = byte(v >> (8 * i))
			}
		}
		return
	}
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// ReadBytes copies n bytes starting at addr, one page at a time.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		a := addr + uint64(i)
		off := int(a & (pageSize - 1))
		chunk := pageSize - off
		if chunk > n-i {
			chunk = n - i
		}
		if p := m.page(a, false); p != nil {
			copy(out[i:i+chunk], p[off:off+chunk])
		} // absent pages read as zero, already the slice default
		i += chunk
	}
	return out
}

// WriteBytes copies data into memory starting at addr, one page at a
// time. It satisfies program.Loader.
func (m *Memory) WriteBytes(addr uint64, data []byte) {
	for i := 0; i < len(data); {
		a := addr + uint64(i)
		off := int(a & (pageSize - 1))
		chunk := pageSize - off
		if chunk > len(data)-i {
			chunk = len(data) - i
		}
		copy(m.page(a, true)[off:off+chunk], data[i:i+chunk])
		i += chunk
	}
}

// PageImage is one resident page of a memory snapshot: the page's base
// address and a copy of its PageSize bytes.
type PageImage struct {
	Addr uint64 `json:"addr"`
	Data []byte `json:"data"`
}

// PageSize is the snapshot/restore granularity (the sparse map's page
// size).
const PageSize = pageSize

// Snapshot returns a deep copy of every resident non-zero page, sorted by
// address — the deterministic serializable form checkpoints embed
// (internal/emu). All-zero pages are dropped: an unwritten page and an
// absent page are indistinguishable to Read, so dropping them keeps the
// image content-addressable regardless of touch order.
func (m *Memory) Snapshot() []PageImage {
	keys := make([]uint64, 0, len(m.pages))
	//lint:maporder keys are collected then sorted before the image is built
	for k, p := range m.pages {
		if *p != [pageSize]byte{} {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	out := make([]PageImage, len(keys))
	for i, k := range keys {
		data := make([]byte, pageSize)
		copy(data, m.pages[k][:])
		out[i] = PageImage{Addr: k << pageBits, Data: data}
	}
	return out
}

// Restore replaces the memory's entire contents with the snapshot: every
// existing page is dropped and the snapshot's pages are installed. Pages
// shorter than PageSize are zero-filled at the tail; an unaligned or
// oversized page is an error.
func (m *Memory) Restore(pages []PageImage) error {
	m.pages = make(map[uint64]*[pageSize]byte, len(pages))
	m.lastKey, m.lastPage = 0, nil
	for _, pg := range pages {
		if pg.Addr&(pageSize-1) != 0 {
			return fmt.Errorf("mem: snapshot page at unaligned address %#x", pg.Addr)
		}
		if len(pg.Data) > pageSize {
			return fmt.Errorf("mem: snapshot page at %#x has %d bytes (max %d)", pg.Addr, len(pg.Data), pageSize)
		}
		p := new([pageSize]byte)
		copy(p[:], pg.Data)
		m.pages[pg.Addr>>pageBits] = p
	}
	return nil
}

// EqualContents reports whether two memories hold identical bytes
// (ignoring page residency: an absent page equals an all-zero one). Used
// by the state-transplant audit and checkpoint tests.
func (m *Memory) EqualContents(o *Memory) bool {
	a, b := m.Snapshot(), o.Snapshot()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy (used by tests that fork architectural state).
// The clone starts with a cold page cache.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for k, p := range m.pages {
		cp := *p
		c.pages[k] = &cp
	}
	return c
}
