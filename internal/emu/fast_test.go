package emu

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
	if !slices.Equal(ref.regs[globalCell:zeroCell], got.regs[globalCell:zeroCell]) {
		t.Fatalf("%s: globals diverged", tag)
	}
	if got.regs[zeroCell] != 0 {
		t.Fatalf("%s: zero cell holds %#x", tag, got.regs[zeroCell])
	}
	for d := 0; d <= ref.depth; d++ {
		rf, rmask := ref.frameAt(d)
		gf, gmask := got.frameAt(d)
		if rf != gf {
			t.Fatalf("%s: window frame %d diverged", tag, d)
		}
		if rmask != gmask {
			t.Fatalf("%s: window write mask %d: oracle %#x, engine %#x", tag, d, rmask, gmask)
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

// TestFastRunFaultInBatch puts a fault at instruction k of one
// FastRun(n > k) batch. The batch must stop exactly where k reference
// steps and the faulting step stop: the same executed count, error text,
// pc, statistics and state. Each fault leaves the index-driven loop by a
// different path, so each rebuilds the pc differently. A batch that ends
// just before the fault must report no error and leave the same pc, and
// the next batch must then report the fault having executed nothing.
func TestFastRunFaultInBatch(t *testing.T) {
	// loop runs a few iterations first, so the fault lands deep in the
	// batch, after taken and not-taken branches.
	const loop = `
main:   li   t0, 3
again:  subi t0, t0, 1
        bgt  t0, again
`
	cases := []struct {
		name, src string
		windowed  bool
		patch     int // text index overwritten with an invalid word, or -1
		want      string
	}{
		{"misaligned indirect target", loop + "la t1, main\n addi t1, t1, 2\n jmpr t1", false, -1, "outside text"},
		{"indirect call below text", loop + "la t1, main\n subi t1, t1, 64\n jsrr t1", false, -1, "outside text"},
		{"off the end of text", loop + "addi t1, t0, 1", false, -1, "outside text"},
		{"window underflow", loop + "ret", true, -1, "underflow"},
		{"bad syscall", loop + "syscall 99", false, -1, "unknown syscall"},
		{"invalid word", loop + "nop\n nop\n syscall 0", false, 5, "invalid instruction"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := build(t, c.src)
			if c.patch >= 0 {
				p.Text[c.patch] = 0
			}
			cfg := Config{Windowed: c.windowed}
			ref := New(p, cfg)
			var info StepInfo
			var k uint64
			var errR error
			for ; k < 1000; k++ {
				if errR = ref.oracleStepInto(&info); errR != nil {
					break
				}
			}
			if errR == nil || !strings.Contains(errR.Error(), c.want) {
				t.Fatalf("oracle fault %v, want one containing %q", errR, c.want)
			}

			m := New(p, cfg)
			ran, err := m.FastRun(k + 10)
			if ran != k || !sameErr(errR, err) {
				t.Fatalf("FastRun(%d) = (%d, %v), oracle faulted after %d steps with %v", k+10, ran, err, k, errR)
			}
			compareMachines(t, "after faulting batch", ref, m, true)

			short := New(p, cfg)
			before := New(p, cfg)
			for i := uint64(0); i < k; i++ {
				if err := before.oracleStepInto(&info); err != nil {
					t.Fatal(err)
				}
			}
			if ran, err := short.FastRun(k); ran != k || err != nil {
				t.Fatalf("FastRun(%d) ending before the fault = (%d, %v)", k, ran, err)
			}
			compareMachines(t, "batch ending before the fault", before, short, true)
			if ran, err := short.FastRun(10); ran != 0 || !sameErr(errR, err) {
				t.Fatalf("next FastRun = (%d, %v), want (0, %v)", ran, err, errR)
			}
			compareMachines(t, "after the fault in the next batch", ref, short, true)
		})
	}
}

// TestFastRunZeroAlloc pins the fast engine's steady-state allocation
// behavior: once the micro-op array is built and the working set is
// touched, FastRun allocates nothing per instruction. This is the
// functional-engine mirror of the detailed core's 0.05 allocs/inst CI
// floor — but the floor here is exactly zero. The windowed program's
// steady state pushes and pops window frames at a fixed depth, so a
// frame stack that allocated per call would show here.
func TestFastRunZeroAlloc(t *testing.T) {
	cases := []struct {
		name     string
		windowed bool
		// Each program never exits (FastRun's budget bounds it) and makes
		// no syscalls, since output formatting allocates.
		src string
	}{
		{"flat compute loop", false, `
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
`},
		{"windowed calls at a steady depth", true, `
	.text
main:
	addi s0, s0, 1
	jsr  f
	jmp  main
f:
	mov  s15, ra
	addi s0, s0, 1
	fmov fs1, fs0
	jsr  g
	ret  (s15)
g:
	addi s1, s1, 3
	ret
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := asm.Assemble(c.src)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			m := New(prog, Config{Windowed: c.windowed})
			if _, err := m.FastRun(10_000); err != nil { // warm up: build micro-ops, touch pages, grow the frame stack
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
			if c.windowed && (m.Stats.Calls == 0 || m.Stats.MaxCallDepth != 2) {
				t.Fatalf("windowed program made %d calls to depth %d, want calls to depth 2", m.Stats.Calls, m.Stats.MaxCallDepth)
			}
		})
	}
}
