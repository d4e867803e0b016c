package emu

import (
	"fmt"
	"math/rand"
	"testing"

	"vca/internal/asm"
	"vca/internal/progen"
	"vca/internal/program"
)

// compareMachines fails the test at the first architectural difference
// between the reference interpreter and a machine under test: pc,
// statistics, window depth, every live register, output, and exit state.
// Memory is compared only when deep is set (snapshotting is too
// expensive per step).
func compareMachines(t testing.TB, tag string, ref, got *Machine, deep bool) {
	t.Helper()
	if ref.pc != got.pc {
		t.Fatalf("%s: pc: oracle %#x, engine %#x", tag, ref.pc, got.pc)
	}
	if ref.Stats != got.Stats {
		t.Fatalf("%s: stats: oracle %+v, engine %+v", tag, ref.Stats, got.Stats)
	}
	if ref.depth != got.depth {
		t.Fatalf("%s: depth: oracle %d, engine %d", tag, ref.depth, got.depth)
	}
	if ref.globals != got.globals {
		t.Fatalf("%s: globals diverged", tag)
	}
	for d := 0; d <= ref.depth; d++ {
		if ref.windows[d] != got.windows[d] {
			t.Fatalf("%s: window frame %d diverged", tag, d)
		}
		if ref.wmask[d] != got.wmask[d] {
			t.Fatalf("%s: window write mask %d: oracle %#x, engine %#x", tag, d, ref.wmask[d], got.wmask[d])
		}
	}
	if ref.Output.String() != got.Output.String() {
		t.Fatalf("%s: output: oracle %q, engine %q", tag, ref.Output.String(), got.Output.String())
	}
	re, rc := ref.Exited()
	ge, gc := got.Exited()
	if re != ge || rc != gc {
		t.Fatalf("%s: exit state: oracle (%v,%d), engine (%v,%d)", tag, re, rc, ge, gc)
	}
	if deep && !ref.mem.EqualContents(got.mem) {
		t.Fatalf("%s: memory diverged", tag)
	}
}

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// Lockstep drives one program through the reference interpreter,
// StepInto, and FastRun(1) side by side. After every instruction it
// checks that StepInto's StepInfo equals the oracle's in every field and
// that the errors match; every `every` instructions (and at the end,
// including memory) it compares full architectural state of both engines
// against the oracle. It stops at exit, at the first error, or after
// budget instructions, and returns how many it stepped.
func Lockstep(t testing.TB, prog *program.Program, windowed bool, budget, every int) int {
	t.Helper()
	ref := New(prog, Config{Windowed: windowed})
	step := New(prog, Config{Windowed: windowed})
	fast := New(prog, Config{Windowed: windowed})
	var want, got StepInfo
	i := 0
	for ; i < budget; i++ {
		errR := ref.oracleStepInto(&want)
		errS := step.StepInto(&got)
		_, errF := fast.FastRun(1)
		if want != got || !sameErr(errR, errS) || !sameErr(errR, errF) {
			t.Fatalf("step %d (pc %#x):\n oracle   %+v err %v\n StepInto %+v err %v\n FastRun err %v",
				i, want.PC, want, errR, got, errS, errF)
		}
		if errR != nil {
			break
		}
		if i%every == 0 {
			tag := fmt.Sprintf("step %d (pc %#x)", i, want.PC)
			compareMachines(t, tag+" StepInto", ref, step, false)
			compareMachines(t, tag+" FastRun", ref, fast, false)
		}
		if ex, _ := ref.Exited(); ex {
			break
		}
	}
	compareMachines(t, "final StepInto", ref, step, true)
	compareMachines(t, "final FastRun", ref, fast, true)
	return i
}

// RunMatchesOracle runs a program with Run and with the reference
// interpreter, checks the stop reason, error, and complete end state
// (memory included) agree, and returns Run's machine and stop reason.
func RunMatchesOracle(t testing.TB, prog *program.Program, cfg Config) (*Machine, StopReason) {
	t.Helper()
	ref, got := New(prog, cfg), New(prog, cfg)
	rr, errR := ref.oracleRun()
	gr, errG := got.Run()
	if rr != gr || !sameErr(errR, errG) {
		t.Fatalf("Run: oracle (%v, %v), engine (%v, %v)", rr, errR, gr, errG)
	}
	compareMachines(t, "Run", ref, got, true)
	return got, gr
}

// TestFastRunLockstepProgen differentially tests StepInto and FastRun
// against the reference interpreter instruction-by-instruction over
// randomly generated programs, in both ABI variants (progen output is
// dual-ABI safe: the same source runs flat and windowed).
func TestFastRunLockstepProgen(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		gcfg := progen.Config{Helpers: 3, WindowLadder: 5, Recursion: true,
			MaxRecDepth: 6, Blocks: 24, Loops: true, Aliasing: true}
		src := progen.Generate(r, gcfg)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v\n%s", seed, err, src)
		}
		for _, windowed := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/windowed=%v", seed, windowed), func(t *testing.T) {
				Lockstep(t, prog, windowed, 50_000, 1)
			})
		}
	}
}

// TestFastRunBatchEquivalence runs the fast engine in large batches (the
// way fast-forward uses it) and checks the end state matches a pure
// reference-interpreter run — catching anything that only breaks across batch
// boundaries (stat flushing, pc handoff, window state caching).
func TestFastRunBatchEquivalence(t *testing.T) {
	for _, seed := range []int64{7, 11} {
		src := progen.FromSeed(seed)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		for _, windowed := range []bool{false, true} {
			ref := New(prog, Config{Windowed: windowed})
			fast := New(prog, Config{Windowed: windowed})
			var info StepInfo
			total := uint64(0)
			for _, batch := range []uint64{1, 7, 97, 1000, 100_000} {
				ran, err := fast.FastRun(batch)
				if err != nil {
					t.Fatalf("FastRun: %v", err)
				}
				for i := uint64(0); i < ran; i++ {
					if err := ref.oracleStepInto(&info); err != nil {
						t.Fatalf("oracle step: %v", err)
					}
				}
				total += ran
				compareMachines(t, fmt.Sprintf("after batch of %d (windowed=%v)", batch, windowed), ref, fast, true)
				if ran < batch {
					break // program exited
				}
			}
			if total == 0 {
				t.Fatal("no instructions executed")
			}
		}
	}
}

// TestFastRunZeroAlloc pins the fast engine's steady-state allocation
// behavior: once the micro-op array is built and the working set is
// touched, FastRun allocates nothing per instruction. This is the
// functional-engine mirror of the detailed core's 0.05 allocs/inst CI
// floor — but the floor here is exactly zero.
func TestFastRunZeroAlloc(t *testing.T) {
	// A pure compute loop that never exits (FastRun's budget bounds it):
	// no syscalls, since output formatting allocates. It runs every
	// specialized ALU kind.
	src := `
	.text
main:
	addi t0, zero, 0
loop:
	addi t0, t0, 1
	add  t1, t0, t0
	sub  t2, t1, t0
	or   t3, t1, t2
	ori  t3, t3, 5
	slli t3, t3, 2
	fmov fs1, fs0
	bne  t0, loop
	jmp  loop
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(prog, Config{})
	if _, err := m.FastRun(10_000); err != nil { // warm up: build micro-ops, touch pages
		t.Fatalf("warmup: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := m.FastRun(100_000); err != nil {
			t.Fatalf("FastRun: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FastRun allocates %.2f times per 100k-instruction batch, want 0", allocs)
	}
}
