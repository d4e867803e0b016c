// Package rename implements the two register-rename substrates the paper
// compares.
//
// The conventional substrate (Conventional, this file) is a per-thread
// map table plus a shared free list: every architectural write allocates
// a fresh physical register, the previous mapping is reclaimed when the
// writer commits, and misprediction recovery restores mappings via the
// commit-side retirement table (§2.1.3's recovery discipline). Its one
// failure mode — the free list running dry — is what limits how many
// contexts (windows × threads) a register file of a given size can hold,
// and is exactly the wall Figures 4 and 7 show the baseline hitting.
//
// The VCA substrate (VCA, vca.go) is the paper's contribution (§2):
// the physical register file becomes a cache of a memory-mapped logical
// register space. Its pieces, each mapping to a paper section:
//
//   - Logical registers are identified by full memory addresses (context
//     base pointer + 8×index, §2.1); the rename table (RenameSource,
//     RenameDest) is therefore tagged and set-associative like a cache
//     (§2.1.1). A source miss allocates a register and generates a fill;
//     replacement pressure evicts an unpinned committed register,
//     generating a spill when dirty. Both travel as MemOp values to the
//     core's ASTQ (§2.2.2).
//   - Each physical register follows the Figure 2 state machine,
//     implemented as reference counts (pins by in-flight readers and the
//     overwriting instruction) plus committed/dirty bits. Pinned
//     registers are never replaced; committed+dirty registers are the
//     cacheable architectural state.
//   - Replacement is LRU over the registers the rename table names. A
//     destination rename retargets its address's entry to the new
//     version, so the previous version, which §2.1.2 gives the lowest
//     replacement priority, is unnamed and never a candidate at all: it
//     stays until the overwriter commits (then it is freed without a
//     spill) or is squashed (then the entry names it again).
//   - The RSID translation table (§2.2.1) compresses the full 64-bit
//     address tags: the table stores a small register-space ID per
//     context page, so tag compares are narrow. Reallocating a live RSID
//     entry flushes the registers still tagged with it.
//
// Physical register *values* live in the core; this package manages
// mappings, allocation, pinning, and spill/fill generation only. That
// split keeps the substrate deterministic and directly property-testable
// (rename_test.go checks the Fig. 2 invariants: no two live mappings to
// one register, pinned registers never replaced, free + live = total).
//
// Associativity 1 is rejected at construction: an instruction's first
// pinned source can occupy the only way its second source maps to,
// deadlocking rename — the paper's §2.1.1 argument for set associativity
// is a correctness requirement, not a tuning choice.
//
// Both substrates count their events into VCAStats fields registered
// with the machine's metrics registry under rename.vca.* (metrics.go);
// the catalogue is docs/OBSERVABILITY.md.
package rename

import "fmt"

// PhysNone marks "no physical register".
const PhysNone = -1

// Conventional is the baseline renamer: every logical register of every
// thread always has a physical mapping; destinations draw from a free
// list; the previous mapping is freed when the overwriting instruction
// commits. Misspeculation recovery is record-based rollback (equivalent in
// outcome to the commit-table walk of §2.1.3; the core charges the walk's
// timing).
type Conventional struct {
	threads   int
	logical   int // logical registers per thread
	phys      int
	spec      [][]int // [thread][logical] -> phys (speculative)
	arch      [][]int // committed mappings
	free      []int
	allocated int
}

// NewConventional builds the renamer and allocates initial mappings for
// every logical register of every thread. It returns an error when the
// physical register file cannot hold the architectural state (the "No
// Baseline" region of Figures 4-8).
func NewConventional(threads, logicalPerThread, physRegs int) (*Conventional, error) {
	need := threads * logicalPerThread
	if physRegs < need+1 {
		return nil, fmt.Errorf("rename: conventional machine needs > %d physical registers for %d threads × %d logical, have %d",
			need, threads, logicalPerThread, physRegs)
	}
	c := &Conventional{threads: threads, logical: logicalPerThread, phys: physRegs}
	next := 0
	for t := 0; t < threads; t++ {
		spec := make([]int, logicalPerThread)
		arch := make([]int, logicalPerThread)
		for l := range spec {
			spec[l] = next
			arch[l] = next
			next++
		}
		c.spec = append(c.spec, spec)
		c.arch = append(c.arch, arch)
	}
	for p := next; p < physRegs; p++ {
		c.free = append(c.free, p)
	}
	c.allocated = next
	return c, nil
}

// FreeCount returns the number of free physical registers (the effective
// rename-register pool).
func (c *Conventional) FreeCount() int { return len(c.free) }

// Lookup returns the current speculative mapping of a logical register.
func (c *Conventional) Lookup(t, logical int) int { return c.spec[t][logical] }

// AllocateDest renames a destination: a fresh physical register is taken
// from the free list and becomes the speculative mapping. It returns the
// new mapping, the previous speculative mapping (needed for rollback), and
// ok=false when the free list is empty (rename must stall).
func (c *Conventional) AllocateDest(t, logical int) (newPhys, prevSpec int, ok bool) {
	if len(c.free) == 0 {
		return PhysNone, PhysNone, false
	}
	newPhys = c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	prevSpec = c.spec[t][logical]
	c.spec[t][logical] = newPhys
	return newPhys, prevSpec, true
}

// CommitDest makes a destination rename architectural: the previously
// committed physical register for this logical register is freed and the
// committed table is updated.
func (c *Conventional) CommitDest(t, logical, newPhys int) {
	old := c.arch[t][logical]
	c.arch[t][logical] = newPhys
	c.free = append(c.free, old)
}

// CommittedLookup returns the committed (architectural) mapping of a
// logical register — the physical register holding its last committed
// value, regardless of in-flight speculative renames. Used by
// architectural-state extraction (core's checkpoint-injection audit).
func (c *Conventional) CommittedLookup(t, logical int) int { return c.arch[t][logical] }

// RollbackDest undoes a squashed destination rename. Records must be
// rolled back youngest-first.
func (c *Conventional) RollbackDest(t, logical, newPhys, prevSpec int) {
	c.spec[t][logical] = prevSpec
	c.free = append(c.free, newPhys)
}

// CheckInvariants verifies allocator conservation (used by tests and the
// core's debug mode): every physical register is either free or reachable
// from a table / in-flight record.
func (c *Conventional) CheckInvariants(inFlight []int) error {
	seen := make([]int, c.phys)
	for _, p := range c.free {
		seen[p]++
	}
	for t := 0; t < c.threads; t++ {
		for l := 0; l < c.logical; l++ {
			seen[c.spec[t][l]]++
			if c.arch[t][l] != c.spec[t][l] {
				seen[c.arch[t][l]]++
			}
		}
	}
	for _, p := range inFlight {
		if p != PhysNone {
			seen[p]++
		}
	}
	for p, n := range seen {
		if n == 0 {
			return fmt.Errorf("rename: physical register %d leaked", p)
		}
	}
	return nil
}
