// Contextswitch demonstrates §2.1.4/§6 at the renamer level: with VCA, a
// "context switch" is nothing but a base-pointer change. Two software
// contexts' registers live simultaneously in one small physical register
// file as cache entries; switching contexts requires no save/restore —
// values spill and fill lazily, on demand, as the working sets compete.
package main

import (
	"fmt"

	"vca/internal/rename"
)

func main() {
	cfg := rename.DefaultVCAConfig(1, 24) // just 24 physical registers
	v := rename.NewVCA(cfg)
	values := map[int]uint64{}
	v.ReadValue = func(p int) uint64 { return values[p] }
	memory := map[uint64]uint64{}

	// Two contexts, each with 16 logical registers, memory-mapped at
	// different base pointers — together 32 logical registers on a
	// 24-entry physical file.
	baseA := uint64(0x1000)
	baseB := uint64(0x2000)
	regAddr := func(base uint64, r int) uint64 { return base + 8*uint64(r) }

	write := func(base uint64, r int, val uint64, tag string) {
		var ops []rename.MemOp
		phys, _, ok := v.RenameDest(regAddr(base, r), &ops)
		if !ok {
			panic("stall")
		}
		for _, op := range ops {
			if op.IsSpill {
				memory[op.Addr] = op.Value
				fmt.Printf("  [spill r%d of %s -> mem[%#x]]\n", int(op.Addr%0x1000)/8, tag, op.Addr)
			}
		}
		values[phys] = val
		v.CommitDest(regAddr(base, r), phys)
	}
	read := func(base uint64, r int, tag string) uint64 {
		var ops []rename.MemOp
		phys, filled, ok := v.RenameSource(regAddr(base, r), &ops)
		if !ok {
			panic("stall")
		}
		for _, op := range ops {
			if op.IsSpill {
				memory[op.Addr] = op.Value
			}
		}
		if filled {
			values[phys] = memory[regAddr(base, r)]
			fmt.Printf("  [fill r%d of %s <- mem[%#x]]\n", r, tag, regAddr(base, r))
		}
		val := values[phys]
		v.ReleaseSource(phys)
		v.ReleaseRetired(phys)
		return val
	}

	fmt.Println("context A: writing r0..r15")
	for r := 0; r < 16; r++ {
		write(baseA, r, uint64(100+r), "A")
	}

	fmt.Println("context switch to B: just a different base pointer — no save/restore")
	for r := 0; r < 16; r++ {
		write(baseB, r, uint64(200+r), "B")
	}

	fmt.Println("switch back to A: spilled values fill back on demand")
	sum := uint64(0)
	for r := 0; r < 16; r++ {
		sum += read(baseA, r, "A")
	}
	fmt.Printf("context A sum = %d (want %d)\n", sum, 16*100+15*16/2)

	fmt.Println("and B's registers are still warm where they fit:")
	sum = 0
	for r := 0; r < 16; r++ {
		sum += read(baseB, r, "B")
	}
	fmt.Printf("context B sum = %d (want %d)\n", sum, 16*200+15*16/2)

	if err := v.CheckInvariants(); err != nil {
		panic(err)
	}
	fmt.Println("renamer invariants hold")
}
