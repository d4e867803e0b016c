package rename

import (
	"math/rand"
	"reflect"
	"testing"
)

// tableScanVictim is the victim search allocPhys made before it scanned
// physical registers: every rename-table entry in table order, keeping
// the lowest LRU stamp. It stays here as the oracle the register scan
// must agree with.
func tableScanVictim(v *VCA) *tableEntry {
	var best *tableEntry
	var bestLRU uint64
	tableWays(v, func(e *tableEntry) {
		p := e.phys()
		if p == PhysNone || !v.evictable(p) {
			return
		}
		if r := &v.regs[p]; best == nil || r.lru < bestLRU {
			best, bestLRU = e, r.lru
		}
	})
	return best
}

// tableWays calls fn on every rename-table way in set-index order, the
// order of the flat sets × ways table the renamer once kept. A set never
// touched reads as Ways empty entries (fn gets a scratch zero entry).
func tableWays(v *VCA, fn func(e *tableEntry)) {
	var empty tableEntry
	for set := range v.slot {
		ways := v.touched(set)
		for i := 0; i < v.cfg.Ways; i++ {
			if ways == nil {
				empty = 0
				fn(&empty)
				continue
			}
			fn(&ways[i])
		}
	}
}

// tableOf returns a copy of the whole rename table as the flat sets ×
// ways array, untouched sets empty.
func tableOf(v *VCA) []tableEntry {
	var flat []tableEntry
	tableWays(v, func(e *tableEntry) { flat = append(flat, *e) })
	return flat
}

// oracleEvict performs, on an empty free list, the eviction the oracle
// picks, exactly as allocPhys would (stat, spill, register onto the free
// list), so the allocation that follows takes the oracle's victim off the
// free list. It returns the victim, or PhysNone when no eviction is due.
func oracleEvict(v *VCA, ops *[]MemOp) int {
	if len(v.free) > 0 {
		return PhysNone
	}
	e := tableScanVictim(v)
	if e == nil {
		return PhysNone
	}
	v.Stats.PhysEvicts++
	p := v.evict(e, ops)
	v.free = append(v.free, p)
	return p
}

// victimPair drives the renamer under test and a twin whose evictions
// the oracle chooses through the same operations, failing on the first
// difference in results, spill/fill operations or state.
type victimPair struct {
	t         *testing.T
	v, twin   *VCA
	evictions int // evictions the oracle chose and the renamer matched
}

func (vp *victimPair) same(what string, got, want any) {
	vp.t.Helper()
	if !reflect.DeepEqual(got, want) {
		vp.t.Fatalf("%s: renamer %+v, oracle twin %+v", what, got, want)
	}
}

func (vp *victimPair) sameState(what string) {
	vp.t.Helper()
	vp.same(what+": registers", vp.v.regs, vp.twin.regs)
	vp.same(what+": free list", vp.v.free, vp.twin.free)
	vp.same(what+": stats", vp.v.Stats, vp.twin.Stats)
	vp.same(what+": clock", vp.v.clock, vp.twin.clock)
}

// check compares one allocating rename's outcomes and, when the oracle
// evicted, that the renamer evicted too and allocated that same register.
func (vp *victimPair) check(what string, victim int, evictsBefore uint64, got, gotTwin []any, ops, opsTwin []MemOp) {
	vp.t.Helper()
	vp.same(what+": results", got, gotTwin)
	vp.same(what+": memory ops", ops, opsTwin)
	vp.sameState(what)
	if victim != PhysNone {
		if vp.v.Stats.PhysEvicts != evictsBefore+1 {
			vp.t.Fatalf("%s: oracle evicted register %d, renamer did not evict", what, victim)
		}
		if ok := got[len(got)-1].(bool); ok && got[0].(int) != victim {
			vp.t.Fatalf("%s: renamer allocated register %d, oracle's victim is %d", what, got[0], victim)
		}
		vp.evictions++
	}
}

func (vp *victimPair) renameSource(addr uint64) (int, bool) {
	vp.t.Helper()
	var ops, opsTwin []MemOp
	victim, before := PhysNone, vp.v.Stats.PhysEvicts
	if _, hit := vp.twin.lookup(addr); hit == PhysNone {
		victim = oracleEvict(vp.twin, &opsTwin)
	}
	p, filled, ok := vp.v.RenameSource(addr, &ops)
	pt, filledT, okT := vp.twin.RenameSource(addr, &opsTwin)
	vp.check("RenameSource", victim, before, []any{p, filled, ok}, []any{pt, filledT, okT}, ops, opsTwin)
	return p, ok
}

func (vp *victimPair) renameDest(addr uint64) (int, int, bool) {
	vp.t.Helper()
	var ops, opsTwin []MemOp
	before := vp.v.Stats.PhysEvicts
	victim := oracleEvict(vp.twin, &opsTwin)
	p, prev, ok := vp.v.RenameDest(addr, &ops)
	pt, prevT, okT := vp.twin.RenameDest(addr, &opsTwin)
	vp.check("RenameDest", victim, before, []any{p, prev, ok}, []any{pt, prevT, okT}, ops, opsTwin)
	return p, prev, ok
}

func (vp *victimPair) release(p int) {
	for _, v := range []*VCA{vp.v, vp.twin} {
		v.ReleaseSource(p)
		v.ReleaseRetired(p)
	}
}

func (vp *victimPair) commitDest(addr uint64, p, prev int) {
	vp.v.CommitDest(addr, p)
	vp.twin.CommitDest(addr, p)
}

func (vp *victimPair) rollbackDest(addr uint64, p, prev int) {
	vp.v.RollbackDest(addr, p, prev)
	vp.twin.RollbackDest(addr, p, prev)
}

// TestVCAVictimMatchesTableScan checks allocPhys's register scan against
// the table-order scan it replaced. Random rename, commit, squash and
// release sequences keep the free list empty, so nearly every allocation
// evicts, on the paper's table and on the ideal-window machine's. Every
// eviction must free the oracle's victim, and the two renamers must end
// in the same state and stats.
func TestVCAVictimMatchesTableScan(t *testing.T) {
	// ideal has the ways of core.DefaultConfig's ideal-window table (this
	// package cannot import core) and a quarter of its 16,384 sets, so the
	// oracle's whole-table scans keep the test fast; 32,768 entries still
	// dwarf every register count here.
	ideal := func(phys int) VCAConfig {
		cfg := DefaultVCAConfig(1, phys)
		cfg.Sets, cfg.Ways = 1<<12, 8
		return cfg
	}
	geometries := []struct {
		name string
		cfg  func(phys int) VCAConfig
	}{
		{"paper", func(phys int) VCAConfig { return DefaultVCAConfig(1, phys) }},
		{"ideal", ideal},
	}
	for _, g := range geometries {
		evictions := 0
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 4; trial++ {
			evictions += runVictimTrial(t, rng, g.cfg(8+rng.Intn(57)))
		}
		// Teeth: the comparison must have exercised the eviction path.
		if evictions < 1000 {
			t.Errorf("%s: only %d evictions compared", g.name, evictions)
		}
	}
}

func runVictimTrial(t *testing.T, rng *rand.Rand, cfg VCAConfig) int {
	t.Helper()
	vp := &victimPair{t: t, v: NewVCA(cfg), twin: NewVCA(cfg)}
	for _, v := range []*VCA{vp.v, vp.twin} {
		v.ReadValue = func(p int) uint64 { return uint64(p) }
	}
	// Three times as many logical registers as physical ones, in one
	// register space (no RSID flushes); on the paper's 64-set table they
	// also collide in sets.
	span := 3 * cfg.PhysRegs
	addrOf := func() uint64 { return uint64(0x1000 + 8*rng.Intn(span)) }

	type inflight struct {
		addr     uint64
		srcPhys  []int
		destPhys int
		destPrev int
		hasDest  bool
	}
	var pipe []inflight
	releaseAll := func(in inflight) {
		for _, p := range in.srcPhys {
			vp.release(p)
		}
	}
	for step := 0; step < 2000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // rename a new instruction on an empty free list
			for tries := 0; len(vp.v.free) > 0 && tries < 2*cfg.PhysRegs; tries++ {
				if p, ok := vp.renameSource(addrOf()); ok {
					vp.release(p)
				}
			}
			in := inflight{addr: addrOf(), destPrev: PhysNone, destPhys: PhysNone}
			okAll := true
			for s := rng.Intn(3); s > 0; s-- {
				p, ok := vp.renameSource(addrOf())
				if !ok {
					okAll = false
					break
				}
				in.srcPhys = append(in.srcPhys, p)
			}
			if okAll && rng.Intn(4) > 0 {
				p, prev, ok := vp.renameDest(in.addr)
				in.destPhys, in.destPrev, in.hasDest = p, prev, ok
				okAll = ok
			}
			if !okAll {
				releaseAll(in)
				break
			}
			pipe = append(pipe, in)

		case 4, 5, 6: // commit oldest
			if len(pipe) == 0 {
				break
			}
			in := pipe[0]
			pipe = pipe[1:]
			releaseAll(in)
			if in.hasDest {
				vp.commitDest(in.addr, in.destPhys, in.destPrev)
			}

		case 7, 8: // squash a suffix, youngest first
			if len(pipe) == 0 {
				break
			}
			from := rng.Intn(len(pipe))
			for i := len(pipe) - 1; i >= from; i-- {
				releaseAll(pipe[i])
				if pipe[i].hasDest {
					vp.rollbackDest(pipe[i].addr, pipe[i].destPhys, pipe[i].destPrev)
				}
			}
			pipe = pipe[:from]

		case 9:
			if err := vp.v.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		vp.sameState("after step")
	}
	for _, in := range pipe {
		releaseAll(in)
		if in.hasDest {
			vp.commitDest(in.addr, in.destPhys, in.destPrev)
		}
	}
	vp.sameState("after drain")
	vp.same("rename table", tableOf(vp.v), tableOf(vp.twin))
	if err := vp.v.CheckInvariants(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if vp.v.Stats.RSIDFlushRegs != 0 {
		t.Fatalf("%d RSID flush evictions: the trial must stay in one register space", vp.v.Stats.RSIDFlushRegs)
	}
	return vp.evictions
}
