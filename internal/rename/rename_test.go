package rename

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestConventionalBasics(t *testing.T) {
	c, err := NewConventional(1, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	if c.FreeCount() != 64 {
		t.Fatalf("free = %d, want 64", c.FreeCount())
	}
	p0 := c.Lookup(0, 5)
	newP, prev, ok := c.AllocateDest(0, 5)
	if !ok || prev != p0 || newP == p0 {
		t.Fatalf("alloc: new=%d prev=%d ok=%v", newP, prev, ok)
	}
	if c.Lookup(0, 5) != newP {
		t.Error("speculative map not updated")
	}
	c.CommitDest(0, 5, newP)
	if c.FreeCount() != 64 {
		t.Errorf("free after commit = %d, want 64 (old freed)", c.FreeCount())
	}
	if err := c.CheckInvariants(nil); err != nil {
		t.Error(err)
	}
}

func TestConventionalRollback(t *testing.T) {
	c, _ := NewConventional(1, 64, 96)
	type rec struct{ log, newP, prev int }
	var recs []rec
	for i := 0; i < 20; i++ {
		log := i % 7
		newP, prev, ok := c.AllocateDest(0, log)
		if !ok {
			t.Fatal("unexpected stall")
		}
		recs = append(recs, rec{log, newP, prev})
	}
	// Squash everything, youngest first.
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		c.RollbackDest(0, r.log, r.newP, r.prev)
	}
	if c.FreeCount() != 32 {
		t.Errorf("free = %d after full rollback, want 32", c.FreeCount())
	}
	for l := 0; l < 7; l++ {
		if c.Lookup(0, l) != l {
			t.Errorf("logical %d maps to %d after rollback, want %d", l, c.Lookup(0, l), l)
		}
	}
	if err := c.CheckInvariants(nil); err != nil {
		t.Error(err)
	}
}

func TestConventionalMinimumSize(t *testing.T) {
	if _, err := NewConventional(1, 64, 64); err == nil {
		t.Error("64 physical registers must be rejected for 64 logical (no rename registers)")
	}
	if _, err := NewConventional(4, 64, 256); err == nil {
		t.Error("4 threads x 64 logical needs > 256 physical registers")
	}
	if _, err := NewConventional(4, 64, 320); err != nil {
		t.Errorf("320 physical registers should work for 4 threads: %v", err)
	}
}

func TestConventionalStallsWhenFreeListEmpty(t *testing.T) {
	c, _ := NewConventional(1, 64, 66)
	if _, _, ok := c.AllocateDest(0, 0); !ok {
		t.Fatal("first alloc should succeed")
	}
	if _, _, ok := c.AllocateDest(0, 1); !ok {
		t.Fatal("second alloc should succeed")
	}
	if _, _, ok := c.AllocateDest(0, 2); ok {
		t.Fatal("third alloc must stall (free list empty)")
	}
}

// --- VCA ---

func newVCA(phys int) *VCA {
	cfg := DefaultVCAConfig(1, phys)
	v := NewVCA(cfg)
	v.ReadValue = func(p int) uint64 { return uint64(p) * 1000 }
	return v
}

func TestVCASourceMissFill(t *testing.T) {
	v := newVCA(8)
	var ops []MemOp
	p, filled, ok := v.RenameSource(0x1000, &ops)
	if !ok || !filled || p == PhysNone {
		t.Fatalf("source miss: p=%d filled=%v ok=%v", p, filled, ok)
	}
	if len(ops) != 1 || ops[0].IsSpill || ops[0].Addr != 0x1000 {
		t.Fatalf("expected one fill op, got %+v", ops)
	}
	// Second read of the same register hits and does not fill.
	ops = nil
	p2, filled, ok := v.RenameSource(0x1000, &ops)
	if !ok || filled || p2 != p || len(ops) != 0 {
		t.Fatalf("source hit: p=%d filled=%v ops=%v", p2, filled, ops)
	}
	if v.Stats.SrcHits != 1 || v.Stats.Fills != 1 {
		t.Errorf("stats %+v", v.Stats)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestVCADestCommitOverwrite(t *testing.T) {
	v := newVCA(8)
	var ops []MemOp
	// First write to 0x2000.
	p1, prev1, ok := v.RenameDest(0x2000, &ops)
	if !ok || prev1 != PhysNone {
		t.Fatalf("dest rename: %d %d %v", p1, prev1, ok)
	}
	v.CommitDest(0x2000, p1)
	// Second write overwrites: on commit, p1 must be freed without a spill.
	p2, prev2, ok := v.RenameDest(0x2000, &ops)
	if !ok || prev2 != p1 {
		t.Fatalf("second dest: %d prev=%d", p2, prev2)
	}
	free := v.FreeCount()
	v.CommitDest(0x2000, p2)
	if v.FreeCount() != free+1 {
		t.Errorf("overwrite did not free the old register")
	}
	if v.Stats.Spills != 0 {
		t.Errorf("overwrite must not spill, got %d spills", v.Stats.Spills)
	}
	if v.Stats.Overwrites != 1 {
		t.Errorf("overwrites = %d", v.Stats.Overwrites)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestVCASquashRestoresMapping(t *testing.T) {
	v := newVCA(8)
	var ops []MemOp
	p1, _, _ := v.RenameDest(0x3000, &ops)
	v.CommitDest(0x3000, p1)
	p2, prev2, _ := v.RenameDest(0x3000, &ops)
	if prev2 != p1 {
		t.Fatal("prev should be committed version")
	}
	v.RollbackDest(0x3000, p2, prev2)
	// A subsequent source read must hit p1 again, no fill.
	ops = nil
	p, filled, ok := v.RenameSource(0x3000, &ops)
	if !ok || filled || p != p1 {
		t.Errorf("after rollback: p=%d filled=%v", p, filled)
	}
	v.ReleaseSource(p)
	if err := v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestVCAEvictionSpillsDirty(t *testing.T) {
	v := newVCA(4) // tiny file forces eviction
	var ops []MemOp
	// Write and commit 4 registers: all dirty and unpinned.
	for i := 0; i < 4; i++ {
		addr := uint64(0x4000 + 8*i)
		p, _, ok := v.RenameDest(addr, &ops)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		v.CommitDest(addr, p)
	}
	if len(ops) != 0 {
		t.Fatalf("no spills expected yet, got %v", ops)
	}
	// A fifth mapping must evict the LRU (0x4000) and spill it.
	p, filled, ok := v.RenameSource(0x5000, &ops)
	if !ok || !filled {
		t.Fatalf("fifth rename failed: %v %v", p, ok)
	}
	var spills, fills int
	for _, op := range ops {
		if op.IsSpill {
			spills++
			if op.Addr != 0x4000 {
				t.Errorf("spilled %#x, want LRU 0x4000", op.Addr)
			}
		} else {
			fills++
		}
	}
	if spills != 1 || fills != 1 {
		t.Errorf("spills=%d fills=%d", spills, fills)
	}
	// The spilled register refills on demand.
	v.ReleaseSource(p)
	ops = nil
	p2, filled, ok := v.RenameSource(0x4000, &ops)
	if !ok || !filled {
		t.Errorf("refill of spilled register failed")
	}
	v.ReleaseSource(p2)
	if err := v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestVCAPinnedNeverEvicted(t *testing.T) {
	v := newVCA(2)
	var ops []MemOp
	// Pin both registers as sources.
	pa, _, _ := v.RenameSource(0x100, &ops)
	pb, _, _ := v.RenameSource(0x108, &ops)
	// Third rename has nothing to evict: must stall.
	if _, _, ok := v.RenameSource(0x110, &ops); ok {
		t.Fatal("rename should stall with all registers pinned")
	}
	if v.Stats.RenameStalls == 0 {
		t.Error("stall not counted")
	}
	// Unpin one; now it succeeds.
	v.ReleaseSource(pa)
	if _, _, ok := v.RenameSource(0x110, &ops); !ok {
		t.Fatal("rename should proceed after unpin")
	}
	v.ReleaseSource(pb)
	if err := v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestVCAOverwrittenVersionNeverEvicted: while an address's overwriter
// is in flight, the version it overwrites is unnamed by the rename table,
// so no forced eviction picks it, even when it holds the oldest LRU stamp
// and is the only unpinned committed register left (§2.1.2's lowest
// replacement priority, held structurally). Squashing the overwriter
// makes the old version the mapping again.
func TestVCAOverwrittenVersionNeverEvicted(t *testing.T) {
	const a, b, c, d, e = 0x100, 0x108, 0x110, 0x118, 0x120
	v := newVCA(3)
	var ops []MemOp
	pa, _, _ := v.RenameDest(a, &ops) // oldest LRU stamp
	v.CommitDest(a, pa)
	pb, _, _ := v.RenameDest(b, &ops)
	v.CommitDest(b, pb)
	pn, prev, ok := v.RenameDest(a, &ops) // the in-flight overwriter takes the last free register
	if !ok || prev != pa || v.FreeCount() != 0 {
		t.Fatalf("overwrite rename: new=%d prev=%d ok=%v free=%d", pn, prev, ok, v.FreeCount())
	}

	ops = nil
	pc, _, ok := v.RenameSource(c, &ops)
	if !ok || pc != pb {
		t.Fatalf("forced eviction allocated p%d (ok=%v), want 0x108's p%d, not the overwritten p%d", pc, ok, pb, pa)
	}
	if len(ops) != 2 || !ops[0].IsSpill || ops[0].Addr != b {
		t.Fatalf("forced eviction ops %+v, want a spill of %#x then a fill", ops, b)
	}
	v.ReleaseSource(pc)
	pd, _, ok := v.RenameSource(d, &ops)
	if !ok || pd != pc {
		t.Fatalf("second eviction allocated p%d (ok=%v), want 0x110's p%d", pd, ok, pc)
	}
	// Now the overwritten version is the only unpinned committed register:
	// rename must stall rather than evict it.
	if _, _, ok := v.RenameSource(e, &ops); ok {
		t.Fatal("rename evicted the overwritten version instead of stalling")
	}
	if addr, mapped := v.MappedAddr(pa); !mapped || addr != a || v.StillMapped(a, pa) {
		t.Fatalf("overwritten p%d: holds %#x (mapped=%v), table-named=%v", pa, addr, mapped, v.StillMapped(a, pa))
	}
	v.ReleaseSource(pd)

	v.RollbackDest(a, pn, pa)
	if !v.StillMapped(a, pa) {
		t.Fatal("rollback did not restore the overwritten version as the mapping")
	}
	ops = nil
	if p, filled, ok := v.RenameSource(a, &ops); !ok || filled || p != pa || len(ops) != 0 {
		t.Fatalf("source read after rollback: p%d filled=%v ok=%v ops=%+v, want a hit on p%d", p, filled, ok, ops, pa)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestPhysStateSize pins the per-register state at 24 bytes: the eviction
// scan and lookups walk this array, so a field that grows it costs every
// rename.
func TestPhysStateSize(t *testing.T) {
	if got := unsafe.Sizeof(physState{}); got != 24 {
		t.Errorf("physState is %d bytes, want 24: see its comment in vca.go", got)
	}
}

func TestVCATableConflictEviction(t *testing.T) {
	cfg := DefaultVCAConfig(1, 64) // 64 sets x 3 ways, plenty of phys regs
	v := NewVCA(cfg)
	v.ReadValue = func(int) uint64 { return 0 }
	var ops []MemOp
	// Four addresses in the same set (stride = sets*8 = 512 bytes).
	addrs := []uint64{0x1000, 0x1000 + 512, 0x1000 + 1024, 0x1000 + 1536}
	for _, a := range addrs[:3] {
		p, _, ok := v.RenameDest(a, &ops)
		if !ok {
			t.Fatal("rename failed")
		}
		v.CommitDest(a, p)
	}
	before := v.Stats.TableConflictEvicts
	p, _, ok := v.RenameSource(addrs[3], &ops)
	if !ok {
		t.Fatal("conflicting rename should evict, not stall")
	}
	if v.Stats.TableConflictEvicts != before+1 {
		t.Error("table conflict eviction not counted")
	}
	v.ReleaseSource(p)
	if err := v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestVCAStillMapped(t *testing.T) {
	v := newVCA(8)
	var ops []MemOp
	p, _, _ := v.RenameSource(0x9000, &ops)
	if !v.StillMapped(0x9000, p) {
		t.Error("should be mapped")
	}
	v.ReleaseSource(p)
	// Force eviction by filling the file.
	for i := 0; i < 8; i++ {
		q, _, ok := v.RenameSource(uint64(0xA000+16*i), &ops)
		if ok {
			v.ReleaseSource(q)
		}
	}
	if v.StillMapped(0x9000, p) && v.FreeCount() == 0 {
		// 0x9000 may or may not have been the LRU victim; only assert
		// consistency, not a specific outcome.
		t.Log("0x9000 survived eviction pressure")
	}
	if err := v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestVCARSIDFlush(t *testing.T) {
	cfg := DefaultVCAConfig(1, 32)
	cfg.RSIDs = 2
	cfg.OffsetBits = 8 // tiny 256-byte spaces force RSID churn
	v := NewVCA(cfg)
	v.ReadValue = func(int) uint64 { return 0 }
	var ops []MemOp
	for i := 0; i < 4; i++ {
		addr := uint64(i) << 8 // each in its own space
		p, _, ok := v.RenameDest(addr, &ops)
		if !ok {
			t.Fatal("rename failed")
		}
		v.CommitDest(addr, p)
	}
	if v.Stats.RSIDMisses < 4 {
		t.Errorf("RSID misses = %d, want >= 4", v.Stats.RSIDMisses)
	}
	if v.Stats.RSIDFlushRegs == 0 {
		t.Error("RSID reuse should flush registers")
	}
	// Flush spills are retrievable.
	if got := v.DrainRSIDOps(); len(got) == 0 {
		t.Error("expected drained RSID spill ops")
	}
	if err := v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestVCARSIDFlushSetOrder pins the order of an RSID-reuse flush's spills
// when the flushed space's table sets were first touched out of index
// order: the flush walks sets in index order, so the spills come out by
// set index, not by when each set was first used.
func TestVCARSIDFlushSetOrder(t *testing.T) {
	cfg := DefaultVCAConfig(1, 32)
	cfg.RSIDs = 2
	cfg.OffsetBits = 8 // 256-byte spaces: space 0 covers sets 0-31
	v := NewVCA(cfg)
	v.ReadValue = func(p int) uint64 { return 100 + uint64(p) }
	var ops []MemOp
	renameCommit := func(addr uint64) {
		t.Helper()
		p, _, ok := v.RenameDest(addr, &ops)
		if !ok {
			t.Fatalf("rename of %#x stalled", addr)
		}
		v.CommitDest(addr, p)
	}
	// Space 0 in set order 31, 8, 16, 1 (registers 0-3), then space 1.
	for _, addr := range []uint64{0xf8, 0x40, 0x80, 0x08, 0x100} {
		renameCommit(addr)
	}
	if len(ops) != 0 || v.PendingRSIDOps() != 0 {
		t.Fatalf("%d ops, %d RSID ops before any space was reused", len(ops), v.PendingRSIDOps())
	}
	// A third space reuses space 0's RSID, flushing its four registers.
	renameCommit(0x200)
	want := []MemOp{
		{Phys: 3, Addr: 0x08, IsSpill: true, Value: 103},
		{Phys: 1, Addr: 0x40, IsSpill: true, Value: 101},
		{Phys: 2, Addr: 0x80, IsSpill: true, Value: 102},
		{Phys: 0, Addr: 0xf8, IsSpill: true, Value: 100},
	}
	if got := v.DrainRSIDOps(); !reflect.DeepEqual(got, want) {
		t.Errorf("flush spills %+v, want set-index order %+v", got, want)
	}
	if v.Stats.RSIDFlushRegs != 4 {
		t.Errorf("RSIDFlushRegs = %d, want 4", v.Stats.RSIDFlushRegs)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Property test: a random interleaving of rename/commit/squash/release
// operations never violates the state-machine invariants (checked after
// every step), never leaks registers, and replays of committed state stay
// reachable.
func TestVCARandomizedStateMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		phys := 4 + rng.Intn(28)
		cfg := DefaultVCAConfig(1, phys)
		cfg.Ways = 2 + rng.Intn(3)
		cfg.Sets = 8
		v := NewVCA(cfg)
		v.ReadValue = func(int) uint64 { return 0 }

		type inflight struct {
			addr     uint64
			srcPhys  []int
			destPhys int
			destPrev int
			hasDest  bool
		}
		var pipe []inflight
		addrOf := func() uint64 { return uint64(0x1000 + 8*rng.Intn(40)) }

		for step := 0; step < 3000; step++ {
			switch rng.Intn(9) {
			case 0, 1, 2, 3: // rename a new instruction
				var ops []MemOp
				in := inflight{addr: addrOf(), destPrev: PhysNone, destPhys: PhysNone}
				okAll := true
				for s := 0; s < rng.Intn(3); s++ {
					p, _, ok := v.RenameSource(addrOf(), &ops)
					if !ok {
						okAll = false
						break
					}
					in.srcPhys = append(in.srcPhys, p)
				}
				if okAll && rng.Intn(4) > 0 {
					p, prev, ok := v.RenameDest(in.addr, &ops)
					if ok {
						in.destPhys, in.destPrev, in.hasDest = p, prev, true
					} else {
						okAll = false
					}
				}
				if !okAll {
					// Stall: undo this instruction's source pins.
					for _, p := range in.srcPhys {
						v.ReleaseSource(p)
						v.ReleaseRetired(p)
					}
					break
				}
				pipe = append(pipe, in)

			case 4, 5, 6: // commit oldest
				if len(pipe) == 0 {
					break
				}
				in := pipe[0]
				pipe = pipe[1:]
				for _, p := range in.srcPhys {
					v.ReleaseSource(p)
					v.ReleaseRetired(p)
				}
				if in.hasDest {
					v.CommitDest(in.addr, in.destPhys)
				}

			case 7, 8: // squash a suffix, youngest first
				if len(pipe) == 0 {
					break
				}
				from := rng.Intn(len(pipe))
				for i := len(pipe) - 1; i >= from; i-- {
					in := pipe[i]
					for _, p := range in.srcPhys {
						v.ReleaseSource(p)
						v.ReleaseRetired(p)
					}
					if in.hasDest {
						v.RollbackDest(in.addr, in.destPhys, in.destPrev)
					}
				}
				pipe = pipe[:from]
			}
			if err := v.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
		// Drain: commit everything, then all registers must be
		// unpinnable and the machine consistent.
		for _, in := range pipe {
			for _, p := range in.srcPhys {
				v.ReleaseSource(p)
				v.ReleaseRetired(p)
			}
			if in.hasDest {
				v.CommitDest(in.addr, in.destPhys)
			}
		}
		if err := v.CheckInvariants(); err != nil {
			t.Fatalf("trial %d drain: %v", trial, err)
		}
		for p := range v.regs {
			if v.regs[p].ref != 0 {
				t.Fatalf("trial %d: register %d still pinned after drain", trial, p)
			}
		}
	}
}

// CheckInvariants rejects a table holding two entries for one address:
// lookup returns the first, so the second would map a stale version.
func TestVCACheckInvariantsDuplicateEntry(t *testing.T) {
	v := NewVCA(DefaultVCAConfig(1, 8))
	var ops []MemOp
	const addr = 0x100
	p1, _, ok := v.RenameDest(addr, &ops)
	if !ok {
		t.Fatal("rename stalled")
	}
	if _, _, ok := v.RenameDest(addr, &ops); !ok { // retargets p1's entry
		t.Fatal("rename stalled")
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// p1 still holds addr (the squash-recovery version); give it a second
	// entry in the address's set.
	ways := v.ways(addr)
	for i := range ways {
		if ways[i] == 0 {
			ways[i] = mapTo(p1)
			break
		}
	}
	err := v.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "two table entries") {
		t.Fatalf("CheckInvariants = %v, want a two-table-entries error", err)
	}
}

func TestDefaultVCAConfigWays(t *testing.T) {
	if DefaultVCAConfig(1, 128).Ways != 3 {
		t.Error("1 thread should use 3 ways")
	}
	if DefaultVCAConfig(2, 128).Ways != 5 {
		t.Error("2 threads should use 5 ways")
	}
	if DefaultVCAConfig(4, 128).Ways != 6 {
		t.Error("4 threads should use 6 ways")
	}
}
