package rename

import "fmt"

// VCAConfig sizes the virtual context architecture structures (§2.2,
// §3: 64 entries per way; 3/5/6 ways for 1/2/4 threads; 8 rename ports;
// at most 2 ASTQ writes per cycle).
type VCAConfig struct {
	PhysRegs   int
	Sets       int // rename-table sets
	Ways       int // rename-table associativity
	Ports      int // rename-table lookups per cycle (same-address reads combine)
	ASTQWrites int // spill/fill operations enqueued per cycle
	// RSID translation table (§2.2.1).
	RSIDs      int // translation-table entries
	OffsetBits int // low address bits kept as the register-space offset
}

// DefaultVCAConfig returns the paper's configuration for a given thread
// count.
func DefaultVCAConfig(threads, physRegs int) VCAConfig {
	ways := 3
	switch {
	case threads >= 4:
		ways = 6
	case threads == 2:
		ways = 5
	}
	return VCAConfig{
		PhysRegs:   physRegs,
		Sets:       64,
		Ways:       ways,
		Ports:      8,
		ASTQWrites: 2,
		RSIDs:      64,
		OffsetBits: 13,
	}
}

// physState is the per-register state of Figure 2: the backing logical
// register memory address, a reference count (pinned when > 0), the
// committed and dirty bits, and LRU time. Figure 2's overwrite-pending
// state needs no count here: a destination rename retargets the table
// entry, so the version it overwrites is no longer named by the table
// and is never an eviction candidate (§2.1.2's lowest priority, held
// structurally). Field widths pack the struct into 24 bytes: the
// renamer's hot paths (lookup, eviction scans, commit) are bound by how
// many of these fit a cache line, and an int32 count is ample for any
// in-flight window.
type physState struct {
	addr      uint64
	lru       uint64
	ref       int32
	mapped    bool
	committed bool
	dirty     bool
}

// tableEntry is one rename-table way: the physical register it maps,
// plus one, so the zero value is an empty way. It keeps no copy of the
// address: a mapped register's own addr is the entry's tag. At 4 bytes
// (16 ways per cache line) every rename's scan of a set stays short.
type tableEntry int32

// phys returns the mapped register, or PhysNone for an empty way.
func (e tableEntry) phys() int { return int(e) - 1 }

func mapTo(phys int) tableEntry { return tableEntry(phys + 1) }

// MemOp is a spill or fill handed to the core's ASTQ.
type MemOp struct {
	Phys    int
	Addr    uint64
	IsSpill bool
	// Value carries the spilled data, captured at rename time so the
	// physical register can be reused immediately (the ASTQ's FIFO order
	// preserves the paper's spill-before-fill dependence for timing).
	Value uint64
}

// VCAStats counts renamer events.
type VCAStats struct {
	SrcHits             uint64
	Fills               uint64
	Spills              uint64
	Overwrites          uint64 // committed registers freed by overwrite (no spill)
	TableConflictEvicts uint64
	PhysEvicts          uint64
	RenameStalls        uint64
	DestAllocs          uint64 // destination registers allocated (phys-reg C̅ transitions)
	RollbackFrees       uint64 // squashed destination registers returned to the free list
	RSIDHits            uint64
	RSIDMisses          uint64
	RSIDFlushRegs       uint64
}

// VCA is the virtual context architecture renamer. The speculative rename
// table is modeled faithfully (tags, sets, ways); the commit-side table
// that drives recovery and overwrite freeing is an unbounded associative
// structure, since its conflict behavior is not what the paper evaluates.
//
// The table holds storage only for the sets a run touches: slot maps each
// set to its ways (1 + the set's index among materialised sets; 0 = never
// touched, which reads as all ways empty), and the ways live in chunks of
// tableChunkSets sets. Chunks never move once allocated, because lookup
// hands out way pointers that callers hold across further lookups.
type VCA struct {
	cfg    VCAConfig
	slot   []int32        // per set: 1 + materialised-set index, 0 = untouched
	chunks [][]tableEntry // materialised sets' ways, tableChunkSets sets per chunk
	nsets  int            // materialised sets
	regs   []physState
	free   []int
	commit commitTable
	clock  uint64

	rsidTags       []uint64 // translation table: upper-address tags
	rsidLRU        []uint64
	rsidValid      []bool
	rsidLast       int // most recent hit index (fast path; no state effect)
	pendingRSIDOps []MemOp

	// ReadValue lets the renamer capture a spill victim's value at rename
	// time; the core installs it (reads the physical register file).
	ReadValue func(phys int) uint64

	Stats VCAStats
}

// NewVCA builds the renamer with all physical registers free and nothing
// mapped: unlike the conventional renamer, VCA has no minimum physical
// register requirement (§4.2 "a point where the conventional architecture
// is unable to operate").
func NewVCA(cfg VCAConfig) *VCA {
	v := &VCA{
		cfg:       cfg,
		slot:      make([]int32, cfg.Sets),
		regs:      make([]physState, cfg.PhysRegs),
		commit:    newCommitTable(cfg.PhysRegs),
		rsidTags:  make([]uint64, cfg.RSIDs),
		rsidLRU:   make([]uint64, cfg.RSIDs),
		rsidValid: make([]bool, cfg.RSIDs),
	}
	for p := cfg.PhysRegs - 1; p >= 0; p-- {
		v.free = append(v.free, p)
	}
	return v
}

// Config returns the active configuration.
func (v *VCA) Config() VCAConfig { return v.cfg }

// FreeCount returns the number of unmapped physical registers.
func (v *VCA) FreeCount() int { return len(v.free) }

func (v *VCA) set(addr uint64) int {
	return int(addr>>3) & (v.cfg.Sets - 1)
}

// tableChunkSets is how many sets' ways one table chunk holds.
const tableChunkSets = 64

// touched returns a set's ways, or nil when the set was never touched.
func (v *VCA) touched(set int) []tableEntry {
	s := v.slot[set]
	if s == 0 {
		return nil
	}
	i, w := uint(s-1), uint(v.cfg.Ways)
	off := i % tableChunkSets * w
	return v.chunks[i/tableChunkSets][off : off+w : off+w]
}

// ways returns addr's set, materialising it (all ways empty) on first
// touch.
func (v *VCA) ways(addr uint64) []tableEntry {
	set := v.set(addr)
	if v.slot[set] == 0 {
		if v.nsets%tableChunkSets == 0 {
			v.chunks = append(v.chunks, make([]tableEntry, min(tableChunkSets, v.cfg.Sets)*v.cfg.Ways))
		}
		v.nsets++
		v.slot[set] = int32(v.nsets)
	}
	return v.touched(set)
}

func (v *VCA) tick() uint64 {
	v.clock++
	return v.clock
}

// lookup finds the table entry for addr. It never materialises a set.
func (v *VCA) lookup(addr uint64) (way *tableEntry, phys int) {
	ways := v.touched(v.set(addr))
	for i := range ways {
		if p := ways[i].phys(); p != PhysNone && v.regs[p].addr == addr {
			return &ways[i], p
		}
	}
	return nil, PhysNone
}

// evictable reports whether a physical register may be replaced: only
// unpinned, committed (architectural) values qualify — speculative
// destinations and pinned sources never do (Figure 2's PC̅ states and
// pinned states).
func (v *VCA) evictable(p int) bool {
	r := &v.regs[p]
	return r.mapped && r.ref == 0 && r.committed
}

// victimIn picks the least recently used evictable register among the
// table entries of one set, or nil if every way is pinned.
func (v *VCA) victimIn(ways []tableEntry) *tableEntry {
	var best *tableEntry
	var bestLRU uint64
	for i := range ways {
		p := ways[i].phys()
		if p == PhysNone || !v.evictable(p) {
			continue
		}
		if r := &v.regs[p]; best == nil || r.lru < bestLRU {
			best, bestLRU = &ways[i], r.lru
		}
	}
	return best
}

// evict frees the register behind a table entry, generating a spill when
// dirty. The caller gets the freed physical register.
func (v *VCA) evict(e *tableEntry, ops *[]MemOp) int {
	p := e.phys()
	r := &v.regs[p]
	if r.dirty {
		val := uint64(0)
		if v.ReadValue != nil {
			val = v.ReadValue(p)
		}
		*ops = append(*ops, MemOp{Phys: p, Addr: r.addr, IsSpill: true, Value: val})
		v.Stats.Spills++
	}
	v.commit.del(r.addr)
	*e = 0
	*r = physState{}
	return p
}

// allocPhys obtains a free physical register, evicting an unpinned
// committed register (global LRU) if necessary. Returns PhysNone if every
// register is pinned or speculative.
func (v *VCA) allocPhys(ops *[]MemOp) int {
	if n := len(v.free); n > 0 {
		p := v.free[n-1]
		v.free = v.free[:n-1]
		return p
	}
	// Global LRU scan over the physical registers, not the table: a
	// candidate must still be named by its address's table entry (a
	// committed version whose entry a younger destination retargeted is
	// not). Each address has at most one valid entry and mapped registers
	// carry distinct LRU stamps, so this picks the victim a scan of every
	// table entry would, at PhysRegs×Ways cost instead of Sets×Ways.
	var best *tableEntry
	var bestLRU uint64
	for p := range v.regs {
		if !v.evictable(p) {
			continue
		}
		r := &v.regs[p]
		if best != nil && r.lru >= bestLRU {
			continue
		}
		if e, cur := v.lookup(r.addr); cur == p {
			best, bestLRU = e, r.lru
		}
	}
	if best == nil {
		return PhysNone
	}
	v.Stats.PhysEvicts++
	return v.evict(best, ops)
}

// installMapping puts addr→phys into the rename table, evicting a way if
// the set is full. Returns false (stall) if every way of the set is
// pinned.
func (v *VCA) installMapping(addr uint64, phys int, ops *[]MemOp) bool {
	ways := v.ways(addr)
	for i := range ways {
		if ways[i] == 0 {
			ways[i] = mapTo(phys)
			return true
		}
	}
	victim := v.victimIn(ways)
	if victim == nil {
		return false
	}
	v.Stats.TableConflictEvicts++
	freed := v.evict(victim, ops)
	v.free = append(v.free, freed)
	*victim = mapTo(phys)
	return true
}

// RenameSource maps a source logical-register address (§2.1.1). On a hit
// the register is pinned and returned. On a miss a physical register is
// allocated, mapped, pinned, and a fill is appended to ops; the core must
// treat the register as not-ready until the fill completes. ok=false
// means rename must stall this cycle (no allocatable register or table
// way).
//
//vca:hot
func (v *VCA) RenameSource(addr uint64, ops *[]MemOp) (phys int, filled bool, ok bool) {
	v.touchRSID(addr)
	if _, p := v.lookup(addr); p != PhysNone {
		v.regs[p].ref++
		v.regs[p].lru = v.tick()
		v.Stats.SrcHits++
		return p, false, true
	}
	p := v.allocPhys(ops)
	if p == PhysNone {
		v.Stats.RenameStalls++
		return PhysNone, false, false
	}
	if !v.installMapping(addr, p, ops) {
		v.free = append(v.free, p)
		v.Stats.RenameStalls++
		return PhysNone, false, false
	}
	v.mapReg(p, addr, true)
	v.commit.put(addr, p)
	*ops = append(*ops, MemOp{Phys: p, Addr: addr, IsSpill: false})
	v.Stats.Fills++
	return p, true, true
}

// mapReg makes register p hold addr, pinned once by the instruction
// renaming it, with a fresh LRU stamp: a filled source is committed, a
// new destination is not. The fields are assigned one by one; a
// composite literal holding a call is built in a stack temporary and
// copied out.
func (v *VCA) mapReg(p int, addr uint64, committed bool) {
	r := &v.regs[p]
	r.addr, r.lru, r.ref = addr, v.tick(), 1
	r.mapped, r.committed, r.dirty = true, committed, false
}

// RenameDest allocates a new physical register for a destination write to
// addr and makes it the speculative mapping. prevSpec is the previous
// speculative mapping (PhysNone on a miss — "for destination registers, a
// miss is not a problem"). The register is pinned by its producer until
// commit.
//
//vca:hot
func (v *VCA) RenameDest(addr uint64, ops *[]MemOp) (newPhys, prevSpec int, ok bool) {
	v.touchRSID(addr)
	p := v.allocPhys(ops)
	if p == PhysNone {
		v.Stats.RenameStalls++
		return PhysNone, PhysNone, false
	}
	// Look up only after allocation: allocPhys may have evicted this very
	// logical register's committed version (its value is then safe in
	// memory and the rename proceeds as a miss).
	entry, prev := v.lookup(addr)
	if entry != nil {
		// Retarget the existing entry to the new speculative version; the
		// previous version stays alive (reachable via the commit table or
		// pinned by consumers) for recovery, but is no longer named by the
		// table and so never an eviction candidate (§2.1.2).
		*entry = mapTo(p)
	} else if !v.installMapping(addr, p, ops) {
		v.free = append(v.free, p)
		v.Stats.RenameStalls++
		return PhysNone, PhysNone, false
	}
	v.mapReg(p, addr, false)
	v.Stats.DestAllocs++
	return p, prev, true
}

// ReleaseSource unpins a source register (at commit or squash of the
// consuming instruction).
//
//vca:hot
func (v *VCA) ReleaseSource(phys int) {
	if phys == PhysNone {
		return
	}
	r := &v.regs[phys]
	if r.ref <= 0 {
		panic(fmt.Sprintf("rename: releasing unpinned physical register %d", phys))
	}
	r.ref--
}

// CommitDest makes a destination write architectural: the producer's pin
// is dropped, the register becomes committed+dirty, and the previously
// committed version of the logical register (if any) is freed by
// overwrite — without any writeback, per §2.1.2.
//
//vca:hot
func (v *VCA) CommitDest(addr uint64, phys int) {
	r := &v.regs[phys]
	r.ref--
	r.committed = true
	r.dirty = true
	r.lru = v.tick()
	if old, ok := v.commit.get(addr); ok && old != phys {
		o := &v.regs[old]
		if o.ref > 0 {
			// Still pinned by in-flight consumers; it will be freed when
			// they release if unreachable. Mark it overwritten: drop its
			// committed status so it frees on last release.
			o.committed = false
			o.dirty = false
		} else {
			v.freeUnmapped(old)
		}
		v.Stats.Overwrites++
	}
	v.commit.put(addr, phys)
}

// CommittedPhys returns the physical register caching the committed
// version of a logical-register address, or ok=false when the committed
// value lives only in the memory-mapped backing store. Used by
// architectural-state extraction (core's checkpoint-injection audit).
func (v *VCA) CommittedPhys(addr uint64) (int, bool) { return v.commit.get(addr) }

// freeUnmapped returns a register to the free list, removing any table
// entry that still points at it.
func (v *VCA) freeUnmapped(p int) {
	r := &v.regs[p]
	if r.mapped {
		if e, cur := v.lookup(r.addr); e != nil && cur == p {
			*e = 0
		}
	}
	*r = physState{}
	v.free = append(v.free, p)
}

// ReleaseRetired handles the deferred free of an overwritten-but-pinned
// register: call after ReleaseSource drops the last pin.
//
//vca:hot
func (v *VCA) ReleaseRetired(phys int) {
	if phys == PhysNone {
		return
	}
	r := &v.regs[phys]
	if r.mapped && r.ref == 0 && !r.committed {
		// Not committed and unpinned: either an overwritten stale version
		// or an orphan; check it is not the current speculative mapping.
		if _, cur := v.lookup(r.addr); cur != phys {
			v.freeUnmapped(phys)
		}
	}
}

// RollbackDest undoes a squashed destination rename (youngest-first). The
// speculative mapping is restored to prevSpec when that register still
// holds this logical register; if it was evicted meanwhile, the mapping is
// simply removed — the committed value lives in memory and will fill on
// demand (§2.1.3's recovery made safe by the memory backing store).
//
//vca:hot
func (v *VCA) RollbackDest(addr uint64, newPhys, prevSpec int) {
	if entry, cur := v.lookup(addr); entry != nil && cur == newPhys {
		if prevSpec != PhysNone && v.regs[prevSpec].mapped && v.regs[prevSpec].addr == addr {
			*entry = mapTo(prevSpec)
		} else {
			*entry = 0
		}
	}
	r := &v.regs[newPhys]
	r.ref-- // producer pin
	if r.ref > 0 {
		panic("rename: squashed destination still pinned by consumers")
	}
	*r = physState{}
	v.free = append(v.free, newPhys)
	v.Stats.RollbackFrees++
}

// StillMapped reports whether addr's current speculative mapping is phys.
func (v *VCA) StillMapped(addr uint64, phys int) bool {
	_, cur := v.lookup(addr)
	return cur == phys
}

// FillLive reports whether a completing fill may deliver its value to
// phys: the register must still hold addr's committed version. A younger
// in-flight destination rename retargets the table but must not drop the
// fill (its consumers still read the old version); only recycling of the
// register after its consumers were squashed invalidates the fill.
func (v *VCA) FillLive(addr uint64, phys int) bool {
	r := &v.regs[phys]
	return r.mapped && r.addr == addr && r.committed
}

// touchRSID models the register-space-ID translation table: a miss
// allocates an entry (LRU), and reallocating a live entry would flush the
// registers of that space. The flush cost is reported through Stats and
// the FlushSpace callback is left to the core (rare; our workloads are
// sized so it never fires during measurement).
func (v *VCA) touchRSID(addr uint64) {
	if v.cfg.RSIDs == 0 {
		return
	}
	tag := addr >> uint(v.cfg.OffsetBits)
	// Fast path: consecutive renames overwhelmingly touch the same register
	// space (one thread's globals or window region), so the last hit index
	// usually matches. A hit's only effects are the LRU touch and the stat,
	// so skipping the scan is behavior-preserving.
	if last := v.rsidLast; v.rsidValid[last] && v.rsidTags[last] == tag {
		v.rsidLRU[last] = v.tick()
		v.Stats.RSIDHits++
		return
	}
	victim, oldest := -1, ^uint64(0)
	for i := 0; i < v.cfg.RSIDs; i++ {
		if v.rsidValid[i] && v.rsidTags[i] == tag {
			v.rsidLRU[i] = v.tick()
			v.rsidLast = i
			v.Stats.RSIDHits++
			return
		}
		if !v.rsidValid[i] {
			if victim == -1 || oldest != 0 {
				victim, oldest = i, 0
			}
		} else if v.rsidLRU[i] < oldest {
			victim, oldest = i, v.rsidLRU[i]
		}
	}
	v.Stats.RSIDMisses++
	if v.rsidValid[victim] {
		// Reusing a live RSID flushes every register in that space.
		old := v.rsidTags[victim]
		var ops []MemOp
		for set := range v.slot {
			ways := v.touched(set)
			for i := range ways {
				p := ways[i].phys()
				if p != PhysNone && v.regs[p].addr>>uint(v.cfg.OffsetBits) == old && v.evictable(p) {
					v.Stats.RSIDFlushRegs++
					freed := v.evict(&ways[i], &ops)
					v.free = append(v.free, freed)
				}
			}
		}
		v.pendingRSIDOps = append(v.pendingRSIDOps, ops...)
	}
	v.rsidValid[victim] = true
	v.rsidTags[victim] = tag
	v.rsidLRU[victim] = v.tick()
	v.rsidLast = victim
}

// DrainRSIDOps returns spills generated by RSID-reuse flushes since the
// last call.
func (v *VCA) DrainRSIDOps() []MemOp {
	ops := v.pendingRSIDOps
	v.pendingRSIDOps = nil
	return ops
}

// MappedAddr reports the logical-register address a physical register
// currently holds (ok=false when it is unmapped). The core's invariant
// checker uses this to validate that every in-flight instruction's
// previous-version pointer still names the version it captured at rename.
func (v *VCA) MappedAddr(p int) (addr uint64, ok bool) {
	r := &v.regs[p]
	return r.addr, r.mapped
}

// PendingRSIDOps reports how many RSID-reuse spill operations await
// DrainRSIDOps. Between rename cycles the queue must be empty (every
// rename path drains it into the ASTQ before returning).
func (v *VCA) PendingRSIDOps() int { return len(v.pendingRSIDOps) }

// AuditPins cross-checks every register's Figure 2 reference count
// against the core's independently reconstructed in-flight view:
// expectRef[p] is the number of pins (source reads plus the producer's
// own pin) the ROB currently justifies. The slice must have PhysRegs
// entries.
func (v *VCA) AuditPins(expectRef []int) error {
	if len(expectRef) != len(v.regs) {
		return fmt.Errorf("vca: audit slice sized %d, want %d", len(expectRef), len(v.regs))
	}
	for p := range v.regs {
		r := &v.regs[p]
		if int(r.ref) != expectRef[p] {
			return fmt.Errorf("vca: register %d ref count %d, but %d in-flight pins justify it (%+v)",
				p, r.ref, expectRef[p], *r)
		}
		if expectRef[p] > 0 && !r.mapped {
			return fmt.Errorf("vca: register %d pinned by %d in-flight readers but unmapped", p, expectRef[p])
		}
	}
	return nil
}

// InjectLeak drops one register off the free list without mapping it — a
// deliberate conservation violation so tests can prove the invariant
// checker notices. Returns false when the free list is empty.
func (v *VCA) InjectLeak() bool {
	if len(v.free) == 0 {
		return false
	}
	v.free = v.free[:len(v.free)-1]
	return true
}

// CheckInvariants validates the Figure 2 state machine globally: table
// entries and register states must be mutually consistent, no register
// may be both free and mapped, and — conservation — every register must
// be exactly one of free or mapped (a register that is neither has
// leaked; doubly listed free registers are double-frees).
func (v *VCA) CheckInvariants() error {
	inFree := make([]bool, v.cfg.PhysRegs)
	for _, p := range v.free {
		if inFree[p] {
			return fmt.Errorf("vca: register %d double-freed", p)
		}
		inFree[p] = true
	}
	seen := make([]bool, v.cfg.PhysRegs)
	entryOf := make(map[uint64]int, v.cfg.PhysRegs) // lookup returns an address's first entry
	for set := range v.slot {
		for _, e := range v.touched(set) {
			p := e.phys()
			if p == PhysNone {
				continue
			}
			if seen[p] {
				return fmt.Errorf("vca: register %d mapped by two table entries", p)
			}
			seen[p] = true
			r := &v.regs[p]
			if inFree[p] {
				return fmt.Errorf("vca: register %d is free but mapped to %#x", p, r.addr)
			}
			if !r.mapped || v.set(r.addr) != set {
				return fmt.Errorf("vca: table set %d names register %d, whose state does not map there (%+v)", set, p, *r)
			}
			if q, dup := entryOf[r.addr]; dup {
				return fmt.Errorf("vca: address %#x has two table entries (registers %d and %d)", r.addr, q, p)
			}
			entryOf[r.addr] = p
		}
	}
	if err := v.commit.check(); err != nil {
		return err
	}
	if err := v.commit.each(func(addr uint64, p int) error {
		r := &v.regs[p]
		if !r.mapped || r.addr != addr {
			return fmt.Errorf("vca: commit table entry %#x -> %d inconsistent (%+v)", addr, p, r)
		}
		if !r.committed {
			return fmt.Errorf("vca: commit table references uncommitted register %d", p)
		}
		return nil
	}); err != nil {
		return err
	}
	// allocPhys relies on mapped registers carrying distinct, nonzero LRU
	// stamps: its minimum must not depend on scan order.
	stampOwner := make(map[uint64]int, v.cfg.PhysRegs)
	for p := range v.regs {
		r := &v.regs[p]
		if r.ref < 0 {
			return fmt.Errorf("vca: register %d has a negative reference count (%+v)", p, r)
		}
		if r.mapped {
			if r.lru == 0 {
				return fmt.Errorf("vca: mapped register %d has no LRU stamp (%+v)", p, *r)
			}
			if q, dup := stampOwner[r.lru]; dup {
				return fmt.Errorf("vca: registers %d and %d share LRU stamp %d", q, p, r.lru)
			}
			stampOwner[r.lru] = p
		}
		switch {
		case inFree[p] && r.mapped:
			return fmt.Errorf("vca: register %d is simultaneously free and mapped to %#x", p, r.addr)
		case !inFree[p] && !r.mapped:
			return fmt.Errorf("vca: register %d leaked (neither free nor mapped)", p)
		case inFree[p] && (r.ref != 0 || r.committed || r.dirty):
			return fmt.Errorf("vca: free register %d has residual state (%+v)", p, *r)
		}
	}
	return nil
}
