package emu

import (
	"strings"
	"testing"

	"vca/internal/asm"
	"vca/internal/isa"
	"vca/internal/program"
)

func build(t *testing.T, src string) *program.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func run(t *testing.T, src string, cfg Config) *Machine {
	t.Helper()
	m := New(build(t, src), cfg)
	reason, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if reason != StopExited {
		t.Fatalf("stopped for %v, want exit", reason)
	}
	return m
}

func TestArithmeticLoop(t *testing.T) {
	// Sum 1..10 = 55.
	m := run(t, `
main:   li   t0, 10
        li   t1, 0
loop:   add  t1, t1, t0
        subi t0, t0, 1
        bgt  t0, loop
        mov  a0, t1
        syscall 2      ; print int
        li   a0, 0
        syscall 0
`, Config{})
	if got := m.Output.String(); got != "55" {
		t.Errorf("output %q, want 55", got)
	}
	if _, code := m.Exited(); code != 0 {
		t.Errorf("exit code %d", code)
	}
}

func TestMemoryOps(t *testing.T) {
	m := run(t, `
main:   la  t0, arr
        ldq t1, 0(t0)
        ldq t2, 8(t0)
        add t1, t1, t2
        stq t1, 16(t0)
        ldl t3, 24(t0)     ; sign-extends -1
        add a0, t1, t3
        syscall 2
        syscall 0
        .data
arr:    .quad 40, 2, 0
        .long 0xFFFFFFFF   ; -1 as a signed 32-bit load
`, Config{})
	if got := m.Output.String(); got != "41" {
		t.Errorf("output %q, want 41", got)
	}
}

func TestByteOpsAndString(t *testing.T) {
	m := run(t, `
main:   la   a0, msg
        li   a1, 5
        syscall 4
        la   t0, msg
        ldbu a0, 1(t0)     ; 'e' = 101
        syscall 2
        stb  zero, 0(t0)
        ldbu a0, 0(t0)
        syscall 2
        syscall 0
        .data
msg:    .ascii "hello"
`, Config{})
	if got := m.Output.String(); got != "hello1010" {
		t.Errorf("output %q", got)
	}
}

const fibSrc = `
; Recursive fib(12) = 144, flat ABI (explicit callee saves).
main:   li   a0, 12
        jsr  fib
        mov  a0, v0
        syscall 2
        li   a0, 0
        syscall 0
fib:    cmplei t0, a0, 1
        beq  t0, rec
        mov  v0, a0
        ret
rec:    subi sp, sp, 24
        stq  ra, 0(sp)
        stq  s0, 8(sp)
        stq  s1, 16(sp)
        mov  s0, a0
        subi a0, a0, 1
        jsr  fib
        mov  s1, v0
        subi a0, s0, 2
        jsr  fib
        add  v0, v0, s1
        ldq  ra, 0(sp)
        ldq  s0, 8(sp)
        ldq  s1, 16(sp)
        addi sp, sp, 24
        ret
`

const fibWinSrc = `
; Recursive fib(12) = 144, windowed ABI: s0/s1 live in the window, no
; saves. Only ra (global) must be preserved, in the window? ra is global,
; so it goes to a windowed temp instead of memory.
main:   li   a0, 12
        jsr  fib
        mov  a0, v0
        syscall 2
        li   a0, 0
        syscall 0
fib:    cmplei t0, a0, 1
        beq  t0, rec
        mov  v0, a0
        ret
rec:    mov  s2, ra        ; stash return address in this window
        mov  s0, a0
        subi a0, a0, 1
        jsr  fib
        mov  s1, v0
        subi a0, s0, 2
        jsr  fib
        add  v0, v0, s1
        mov  ra, s2
        ret
`

func TestRecursionFlatABI(t *testing.T) {
	m := run(t, fibSrc, Config{})
	if got := m.Output.String(); got != "144" {
		t.Errorf("fib output %q, want 144", got)
	}
	if m.Stats.Calls != m.Stats.Returns {
		t.Errorf("calls %d != returns %d", m.Stats.Calls, m.Stats.Returns)
	}
}

func TestRecursionWindowedABI(t *testing.T) {
	m := run(t, fibWinSrc, Config{Windowed: true})
	if got := m.Output.String(); got != "144" {
		t.Errorf("windowed fib output %q, want 144", got)
	}
	if m.Stats.MaxCallDepth < 11 {
		t.Errorf("max call depth %d, want >= 11", m.Stats.MaxCallDepth)
	}
	// The windowed version executes fewer instructions (no save/restore
	// loads/stores) — the Table 2 effect.
	flat := run(t, fibSrc, Config{})
	if m.Stats.Insts >= flat.Stats.Insts {
		t.Errorf("windowed path length %d not shorter than flat %d",
			m.Stats.Insts, flat.Stats.Insts)
	}
	if m.Stats.Loads+m.Stats.Stores >= flat.Stats.Loads+flat.Stats.Stores {
		t.Error("windowed ABI should do less memory traffic")
	}
	// Identical conditional-branch counts (the paper's alignment check).
	if m.Stats.CondBranches != flat.Stats.CondBranches {
		t.Errorf("cond branches differ: windowed %d flat %d",
			m.Stats.CondBranches, flat.Stats.CondBranches)
	}
}

func TestWindowIsolation(t *testing.T) {
	// Callee clobbers every windowed register; caller's survive.
	m := run(t, `
main:   li   s0, 111
        li   s5, 555
        jsr  clobber
        add  a0, s0, s5
        syscall 2
        syscall 0
clobber:
        li s0, 9
        li s1, 9
        li s5, 9
        li s15, 9
        ret
`, Config{Windowed: true})
	if got := m.Output.String(); got != "666" {
		t.Errorf("windowed registers not isolated: %q", got)
	}
}

func TestFlatMachineSharesWindowedRegs(t *testing.T) {
	// Same program without windows: callee clobbers caller's s-regs.
	m := run(t, `
main:   li   s0, 111
        jsr  clobber
        mov  a0, s0
        syscall 2
        syscall 0
clobber:
        li s0, 9
        ret
`, Config{})
	if got := m.Output.String(); got != "9" {
		t.Errorf("flat machine should share s-regs: %q", got)
	}
}

func TestFloatPipeline(t *testing.T) {
	m := run(t, `
main:   la   t0, vals
        ldf  fs0, 0(t0)
        ldf  fs1, 8(t0)
        fmul fs2, fs0, fs1
        fsqrt fs3, fs2
        fcmplt t1, fs3, fs0
        mov  a0, t1
        syscall 2
        fmov fa0, fs3
        syscall 3
        syscall 0
        .data
vals:   .double 4.0, 9.0
`, Config{})
	// sqrt(36)=6, 6<4 false -> "0", then "6".
	if got := m.Output.String(); got != "06" {
		t.Errorf("output %q, want 06", got)
	}
}

func TestIndirectCallAndJump(t *testing.T) {
	m := run(t, `
main:   la   t0, target
        jsrr t0
        la   t1, done
        jmpr t1
        syscall 2          ; skipped
done:   li   a0, 7
        syscall 2
        syscall 0
target: li   a0, 3
        syscall 2
        ret
`, Config{})
	if got := m.Output.String(); got != "37" {
		t.Errorf("output %q, want 37", got)
	}
}

func TestCvtRoundTrip(t *testing.T) {
	m := run(t, `
main:   li    t0, -41
        cvtif fs0, t0
        la    t1, one
        ldf   fs1, 0(t1)
        fsub  fs0, fs0, fs1
        cvtfi a0, fs0
        syscall 2
        syscall 0
        .data
one:    .double 1.0
`, Config{})
	if got := m.Output.String(); got != "-42" {
		t.Errorf("output %q, want -42", got)
	}
}

func TestStepInfoReporting(t *testing.T) {
	m := New(build(t, `
main:   li  t0, 5
        stq t0, 0(sp)
        syscall 0
`), Config{})
	var info StepInfo
	if err := m.StepInto(&info); err != nil {
		t.Fatal(err)
	}
	if info.Dest != isa.RegT0 || info.DestVal != 5 {
		t.Errorf("li step info: %+v", info)
	}
	if err := m.StepInto(&info); err != nil {
		t.Fatal(err)
	}
	if !info.IsStore || info.Addr != program.StackTop || info.DestVal != 5 {
		t.Errorf("store step info: %+v", info)
	}
}

func TestRunawayGuard(t *testing.T) {
	m := New(build(t, "main: jmp main"), Config{MaxInsts: 1000})
	reason, err := m.Run()
	if err != nil || reason != StopMaxInsts {
		t.Errorf("runaway: reason %v err %v", reason, err)
	}
}

func TestWindowUnderflowDetected(t *testing.T) {
	m := New(build(t, "main: ret"), Config{Windowed: true})
	_, err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Errorf("expected underflow error, got %v", err)
	}
}

func TestErrorOnExitedStep(t *testing.T) {
	m := run(t, "main: syscall 0", Config{})
	var info StepInfo
	if err := m.StepInto(&info); err == nil {
		t.Error("step after exit should error")
	}
}

func TestPCOutsideText(t *testing.T) {
	m := New(build(t, "main: ret"), Config{}) // returns to sp=0... ra=0
	_, err := m.Run()
	if err == nil {
		t.Error("expected pc-out-of-text error")
	}
}
