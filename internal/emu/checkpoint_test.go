package emu

import (
	"bytes"
	"strings"
	"testing"

	"vca/internal/asm"
	"vca/internal/isa"
	"vca/internal/progen"
)

// TestCheckpointRoundTrip proves save → restore → continue is invisible:
// a run interrupted by a checkpoint (serialized and decoded through the
// wire format for good measure) finishes with the same architectural
// state, statistics, and output as an uninterrupted one.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, seed := range []int64{4, 9} {
		src := progen.FromSeed(seed)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		for _, windowed := range []bool{false, true} {
			// Uninterrupted reference run.
			ref := New(prog, Config{Windowed: windowed})
			if _, err := ref.Run(); err != nil {
				t.Fatalf("reference run: %v", err)
			}

			// Interrupted run: stop partway, checkpoint, serialize,
			// decode, restore into a fresh machine, finish.
			cut := ref.Stats.Insts / 2
			m := New(prog, Config{Windowed: windowed})
			if _, err := m.FastRun(cut); err != nil {
				t.Fatalf("fast-forward: %v", err)
			}
			ck := m.Checkpoint()
			var buf bytes.Buffer
			if err := ck.Encode(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			ck2, err := DecodeCheckpoint(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			a1, err := ck.ContentAddress()
			if err != nil {
				t.Fatal(err)
			}
			a2, err := ck2.ContentAddress()
			if err != nil {
				t.Fatal(err)
			}
			if a1 != a2 {
				t.Fatalf("content address changed across encode/decode: %s vs %s", a1, a2)
			}
			resumed, err := NewFromCheckpoint(prog, Config{Windowed: windowed}, ck2)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if _, err := resumed.Run(); err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			compareMachines(t, "resumed vs reference", ref, resumed, true)
		}
	}
}

// TestCheckpointValidation exercises the rejection paths: a checkpoint
// must not restore onto a different program or ABI mode, and a corrupted
// image must not decode.
func TestCheckpointValidation(t *testing.T) {
	progA, err := asm.Assemble(progen.FromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	progB, err := asm.Assemble(progen.FromSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	m := New(progA, Config{})
	if _, err := m.FastRun(100); err != nil {
		t.Fatal(err)
	}
	ck := m.Checkpoint()

	if err := ck.Validate(progB, false); err == nil || !strings.Contains(err.Error(), "not this") {
		t.Fatalf("wrong program: got %v, want program-hash rejection", err)
	}
	if err := ck.Validate(progA, true); err == nil || !strings.Contains(err.Error(), "windowed") {
		t.Fatalf("wrong ABI: got %v, want ABI rejection", err)
	}
	if err := ck.Validate(progA, false); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}

	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Replace(buf.Bytes(), []byte(`"pc":`), []byte(`"pc":1`), 1)
	if _, err := DecodeCheckpoint(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt image: got %v, want checksum rejection", err)
	}
}

// TestRestoreNonzeroDeadSlots restores an image whose window frames hold
// nonzero values in slots their write masks call dead. The emulator never
// produces such an image (a pushed frame starts all zero), but a decoded
// one may carry them, and restoring must then behave exactly as the
// image says: each value stays readable in its own frame, survives a
// push and pop over it, and never leaks into a fresh frame; the image
// itself round-trips through Checkpoint unchanged.
func TestRestoreNonzeroDeadSlots(t *testing.T) {
	p := build(t, `
main:   jsr  f
        mov  a0, s2        ; main's dead slot s2, injected below
        syscall 2
        li   a0, 0
        syscall 0
f:      mov  s15, ra       ; the checkpoint is taken after this
        jsr  g
        mov  a0, s3        ; f's dead slot s3, injected below
        syscall 2
        ret  (s15)
g:      mov  a0, s3        ; a fresh frame: reads zero
        syscall 2
        ret
`)
	cfg := Config{Windowed: true}
	m := New(p, cfg)
	if _, err := m.FastRun(2); err != nil {
		t.Fatal(err)
	}
	ck := m.Checkpoint()
	s2, s3 := isa.Reg(2).WindowSlot(), isa.Reg(3).WindowSlot()
	if len(ck.Windows) != 2 || ck.WMasks[0]&(1<<s2) != 0 || ck.WMasks[1]&(1<<s3) != 0 {
		t.Fatalf("unexpected image: windows %d, masks %#x", len(ck.Windows), ck.WMasks)
	}
	ck.Windows[0][s2], ck.Windows[1][s3] = 77, 55
	for _, step := range []bool{false, true} {
		r, err := NewFromCheckpoint(p, cfg, ck)
		if err != nil {
			t.Fatal(err)
		}
		back := r.Checkpoint()
		a, _ := back.ContentAddress()
		b, _ := ck.ContentAddress()
		if a != b {
			t.Fatalf("restored image re-captures as %.12s, want %.12s", a, b)
		}
		if step {
			var info StepInfo
			for ex := false; !ex; ex, _ = r.Exited() {
				if err := r.StepInto(&info); err != nil {
					t.Fatal(err)
				}
			}
		} else if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if got := r.Output.String(); got != "05577" {
			t.Errorf("StepInto=%v: output %q, want %q", step, got, "05577")
		}
	}
}
