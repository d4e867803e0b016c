package emu_test

import (
	"bytes"
	"testing"

	"vca"
	"vca/internal/asm"
	"vca/internal/emu"
	"vca/internal/progen"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder,
// the reader of checkpoint files. Decoding must
// never panic; an image it accepts must re-encode to the checksum it was
// accepted under, and, when it validates against the program it claims,
// restoring it and stepping the restored machine must not panic either.
func FuzzDecodeCheckpoint(f *testing.F) {
	prog, err := asm.Assemble(progen.FromSeed(3))
	if err != nil {
		f.Fatal(err)
	}
	for _, windowed := range []bool{false, true} {
		ck, err := vca.FastForward(prog, windowed, 400)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		img := buf.Bytes()
		f.Add(img)
		f.Add(img[:len(img)/2]) // truncated mid-image
		f.Add(img[:len(img)-2]) // closing brace lost
		for _, at := range []int{9, len(img) / 3, len(img) - 20} {
			flipped := bytes.Clone(img)
			flipped[at] ^= 0x04 // one bit flipped
			f.Add(flipped)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"checksum":"00"}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := emu.DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		stored := ck.Checksum
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err != nil {
			t.Fatalf("accepted image does not re-encode: %v", err)
		}
		if ck.Checksum != stored {
			t.Fatalf("re-encoded checksum %s, accepted under %s", ck.Checksum, stored)
		}
		again, err := emu.DecodeCheckpoint(&buf)
		if err != nil || again.Checksum != stored {
			t.Fatalf("re-encoded image does not decode to the same checksum: %v", err)
		}
		m, err := emu.NewFromCheckpoint(prog, emu.Config{Windowed: ck.Windowed}, ck)
		if err != nil {
			return
		}
		// Faults are expected from a mutated image; only a panic fails.
		_, _ = m.FastRun(100)
		var info emu.StepInfo
		_ = m.StepInto(&info)
	})
}
