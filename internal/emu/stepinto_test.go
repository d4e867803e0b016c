package emu

import (
	"fmt"
	"strings"
	"testing"

	"vca/internal/isa"
)

// stepAll drives a fresh machine through StepInto until an error (or
// limit steps) and returns every StepInfo plus the terminating error.
func stepAll(t *testing.T, m *Machine, limit int) ([]StepInfo, error) {
	t.Helper()
	var infos []StepInfo
	for i := 0; i < limit; i++ {
		var info StepInfo
		err := m.StepInto(&info)
		infos = append(infos, info)
		if err != nil {
			return infos, err
		}
	}
	return infos, nil
}

// TestStepIntoEdgeCases checks the StepInfo facts co-simulation depends
// on in the shapes most likely to go wrong in a predecoded step, each
// also run in full lockstep against the reference interpreter.
func TestStepIntoEdgeCases(t *testing.T) {
	t.Run("taken branch to pc+4", func(t *testing.T) {
		p := build(t, `
main:   li   t0, 0
        beq  t0, next
next:   bne  t0, main      ; not taken
        syscall 0
`)
		infos, _ := stepAll(t, New(p, Config{}), 3)
		br := infos[1]
		if !br.Taken || br.NextPC != br.PC+4 {
			t.Errorf("beq to pc+4: %+v, want Taken with NextPC pc+4", br)
		}
		if nt := infos[2]; nt.Taken || nt.NextPC != nt.PC+4 {
			t.Errorf("not-taken bne: %+v", nt)
		}
		Lockstep(t, p, false, 100, 1)
	})

	t.Run("sub-8-byte stores report the truncated value", func(t *testing.T) {
		p := build(t, `
main:   li   t0, -1
        stb  t0, 0(sp)
        stl  t0, 8(sp)
        stq  t0, 16(sp)
        syscall 0
`)
		m := New(p, Config{})
		infos, _ := stepAll(t, m, 4)
		for i, want := range []uint64{0xFF, 0xFFFFFFFF, ^uint64(0)} {
			st := infos[len(infos)-3+i]
			if !st.IsStore || st.DestVal != want || st.Dest != isa.RegNone {
				t.Errorf("store %d: %+v, want IsStore DestVal %#x", i, st, want)
			}
		}
		Lockstep(t, p, false, 100, 1)
	})

	for _, windowed := range []bool{false, true} {
		t.Run(fmt.Sprintf("jsr and jsrr report ra/windowed=%v", windowed), func(t *testing.T) {
			p := build(t, `
main:   jsr  f
        la   t0, f
        jsrr t0
        li   a0, 0
        syscall 0
f:      ret
`)
			m := New(p, Config{Windowed: windowed})
			var calls int
			for {
				var info StepInfo
				if err := m.StepInto(&info); err != nil {
					t.Fatal(err)
				}
				if info.Inst.Op == isa.OpJsr || info.Inst.Op == isa.OpJsrR {
					calls++
					if info.Dest != isa.RegRA || info.DestVal != info.PC+4 || !info.Taken {
						t.Errorf("%v: %+v, want Dest ra = pc+4, Taken", info.Inst.Op, info)
					}
				}
				if ex, _ := m.Exited(); ex {
					break
				}
			}
			if calls != 2 {
				t.Fatalf("saw %d calls, want 2", calls)
			}
			Lockstep(t, p, windowed, 100, 1)
		})
	}

	t.Run("load into its own base register", func(t *testing.T) {
		p := build(t, `
main:   la   t0, val
        ldq  t0, 8(t0)
        syscall 0
        .data
val:    .quad 1, 77
`)
		m := New(p, Config{})
		infos, _ := stepAll(t, m, 4)
		ld := infos[len(infos)-1]
		base := p.Symbols["val"]
		if ld.Addr != base+8 || ld.DestVal != 77 || ld.Dest != isa.RegT0 {
			t.Errorf("ldq t0, 8(t0): %+v, want Addr %#x DestVal 77", ld, base+8)
		}
		Lockstep(t, p, false, 100, 1)
	})
}

// TestStepIntoErrors checks every fault StepInto can report: the error
// text and the StepInfo left behind match the reference interpreter.
func TestStepIntoErrors(t *testing.T) {
	cases := []struct {
		name, src string
		windowed  bool
		patch     int // text index overwritten with an invalid word, or -1
		want      string
	}{
		{"invalid word", "main: nop\n nop\n syscall 0", false, 1, "invalid instruction"},
		{"pc outside text", "main: ret", false, -1, "outside text"},
		{"misaligned pc", "main: la t0, main\n addi t0, t0, 2\n jmpr t0", false, -1, "outside text"},
		{"window underflow", "main: ret", true, -1, "underflow"},
		{"bad syscall", "main: syscall 99", false, -1, "unknown syscall"},
		{"step after exit", "main: syscall 0", false, -1, "has exited"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := build(t, c.src)
			if c.patch >= 0 {
				p.Text[c.patch] = 0
			}
			n := Lockstep(t, p, c.windowed, 100, 1)
			m := New(p, Config{Windowed: c.windowed})
			infos, err := stepAll(t, m, n+2)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
			// A fault after the last good step must also be reported by
			// the reference interpreter with the same StepInfo.
			ref := New(p, Config{Windowed: c.windowed})
			var want StepInfo
			var errR error
			for range infos {
				if errR = ref.oracleStepInto(&want); errR != nil {
					break
				}
			}
			if got := infos[len(infos)-1]; got != want || !sameErr(errR, err) {
				t.Errorf("fault: StepInto %+v (%v), oracle %+v (%v)", got, err, want, errR)
			}
			compareMachines(t, "after fault", ref, m, true)
		})
	}
}

// TestRunBoundaries pins Run's stop contract at the instruction budget
// and on an exited machine, against the reference interpreter's Run.
func TestRunBoundaries(t *testing.T) {
	p := build(t, `
main:   li   t0, 3
loop:   subi t0, t0, 1
        bgt  t0, loop
        li   a0, 5
        syscall 0
`)
	full, _ := RunMatchesOracle(t, p, Config{})
	n := full.Stats.Insts
	cases := []struct {
		name   string
		max    uint64
		reason StopReason
	}{
		{"budget ends on the exit syscall", n, StopExited},
		{"budget one short of exit", n - 1, StopMaxInsts},
		{"budget far below exit", 2, StopMaxInsts},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, reason := RunMatchesOracle(t, p, Config{MaxInsts: c.max})
			if reason != c.reason {
				t.Fatalf("Run stopped for %v, want %v", reason, c.reason)
			}
			if want := min(c.max, n); m.Stats.Insts != want {
				t.Errorf("executed %d, want %d", m.Stats.Insts, want)
			}
			// A second Run with the budget spent stops at once.
			if reason == StopMaxInsts {
				if r, err := m.Run(); r != StopMaxInsts || err != nil || m.Stats.Insts != c.max {
					t.Errorf("second Run = (%v, %v) after %d insts", r, err, m.Stats.Insts)
				}
			}
		})
	}
	t.Run("run on an exited machine", func(t *testing.T) {
		ref, m := New(p, Config{}), New(p, Config{})
		if _, err := ref.oracleRun(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		rr, errR := ref.oracleRun()
		gr, errG := m.Run()
		if gr != StopError || rr != gr || !sameErr(errR, errG) {
			t.Fatalf("Run after exit: (%v, %v), oracle (%v, %v)", gr, errG, rr, errR)
		}
		compareMachines(t, "after second Run", ref, m, true)
	})
}

// TestSpecializedKinds covers the dispatch kinds given to the hottest
// generic-ALU ops (or, ori, slli, fmov): the predecoder assigns them,
// and both engines agree with the reference interpreter on them,
// including a shift amount past 63 and the mov pseudo-op.
func TestSpecializedKinds(t *testing.T) {
	p := build(t, `
main:   li   t0, 0x1234
        ori  t1, t0, 0x0F0F
        slli t2, t1, 70        ; shift amount taken mod 64
        slli t3, t1, 0
        or   t3, t2, t3
        mov  s0, t3
        or   zero, t3, t3
        la   s1, vals
        ldf  fs0, 0(s1)
        fmov fs1, fs0
        mov  fa0, fs1
        syscall 3
        mov  a0, s0
        syscall 2
        syscall 0
        .data
vals:   .double 2.5
`)
	seen := map[fastKind]bool{}
	for _, f := range New(p, Config{}).fast {
		seen[f.kind] = true
	}
	for _, k := range []fastKind{fkOr, fkOrImm, fkSllImm, fkFMov} {
		if !seen[k] {
			t.Errorf("no micro-op of kind %d predecoded", k)
		}
	}
	Lockstep(t, p, false, 100, 1)
	m, _ := RunMatchesOracle(t, p, Config{})
	want := "2.5" + "516095" // 0x1F3F<<6 | 0x1F3F
	if got := m.Output.String(); got != want {
		t.Errorf("output %q, want %q", got, want)
	}
}
