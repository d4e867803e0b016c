// Checkpoints: serializable, versioned, content-addressable images of a
// functional machine's complete architectural state. A checkpoint is the
// handoff format between the fast functional engine and the detailed
// core (fast-forward warmup, vcasim -checkpoint/-restore). The detailed
// core reads one back out of its committed state to audit each
// injection (core.Machine.InjectCheckpoint under Config.Check).
//
// The image holds exactly the state the ISA defines — PC, globals, the
// window-frame stack, sparse memory pages — plus execution provenance
// (cumulative Stats, program output so far, the program's image hash) so
// a restored run continues as if it had never stopped. Content addressing (ContentAddress) is a
// SHA-256 over the canonical JSON payload; two runs that reach the same
// architectural state produce byte-identical images because memory
// snapshots are sorted and all-zero pages are dropped (mem.Snapshot).
package emu

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"vca/internal/isa"
	"vca/internal/mem"
	"vca/internal/program"
)

// CheckpointVersion is the checkpoint image schema version. Bump it for
// any change to the Checkpoint layout or to the semantics of the state
// it captures; decoding rejects mismatched versions rather than guessing.
const CheckpointVersion = 1

// Checkpoint is one serializable architectural-state image.
type Checkpoint struct {
	Version int `json:"version"`
	// Program names the binary this state belongs to; ProgramHash
	// (program.Program.Digest) pins the exact image (text, data, entry)
	// so a checkpoint can never be restored onto a different program.
	Program     string `json:"program"`
	ProgramHash string `json:"program_hash"`
	// Windowed records the ABI mode the state was produced under; frames
	// beyond the first exist only when true.
	Windowed bool `json:"windowed"`
	// Insts is the dynamic instruction count at capture (provenance: it
	// is Stats.Insts, duplicated at top level as the boundary id).
	Insts uint64 `json:"insts"`

	PC      uint64     `json:"pc"`
	Globals []uint64   `json:"globals"` // isa.GlobalSlots values
	Windows [][]uint64 `json:"windows"` // frames 0..depth, isa.WindowSlots each
	// WMasks is index-aligned with Windows: bit s of WMasks[d] marks frame
	// d's slot s as written since the frame was pushed. Never-written
	// (dead) slots read as zero functionally but may hold stale values in
	// a detailed machine; the state-transplant audit uses the mask to
	// canonicalize them.
	WMasks   []uint32 `json:"wmasks"`
	Exited   bool     `json:"exited,omitempty"`
	ExitCode int64    `json:"exit_code,omitempty"`

	Stats  Stats           `json:"stats"`
	Output []byte          `json:"output,omitempty"`
	Pages  []mem.PageImage `json:"pages"`

	// Checksum (sha256 of the canonical payload) detects file corruption;
	// Encode sets it, DecodeCheckpoint verifies it. It equals
	// ContentAddress by construction.
	Checksum string `json:"checksum,omitempty"`
}

// Checkpoint captures the machine's current architectural state as a
// deep-copied, serializable image.
func (m *Machine) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Version:     CheckpointVersion,
		Program:     m.prog.Name,
		ProgramHash: m.prog.Digest(),
		Windowed:    m.cfg.Windowed,
		Insts:       m.Stats.Insts,
		PC:          m.pc,
		Globals:     append([]uint64(nil), m.regs[globalCell:zeroCell]...),
		Windows:     make([][]uint64, m.depth+1),
		WMasks:      make([]uint32, m.depth+1),
		Exited:      m.exited,
		ExitCode:    m.exitCode,
		Stats:       m.Stats,
		Output:      append([]byte(nil), m.Output.Bytes()...),
		Pages:       m.mem.Snapshot(),
	}
	for d := 0; d <= m.depth; d++ {
		f, wmask := m.frameAt(d)
		ck.Windows[d], ck.WMasks[d] = f[:], wmask
	}
	return ck
}

// Validate checks that a checkpoint is structurally sound and belongs to
// the given program and ABI mode.
func (ck *Checkpoint) Validate(p *program.Program, windowed bool) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("emu: checkpoint version %d, this build reads %d", ck.Version, CheckpointVersion)
	}
	if h := p.Digest(); ck.ProgramHash != h {
		return fmt.Errorf("emu: checkpoint was taken from program %q (hash %.12s), not this %q (hash %.12s)",
			ck.Program, ck.ProgramHash, p.Name, h)
	}
	if ck.Windowed != windowed {
		return fmt.Errorf("emu: checkpoint ABI mode windowed=%v, machine windowed=%v", ck.Windowed, windowed)
	}
	if len(ck.Globals) != isa.GlobalSlots {
		return fmt.Errorf("emu: checkpoint has %d globals, want %d", len(ck.Globals), isa.GlobalSlots)
	}
	if len(ck.Windows) == 0 {
		return fmt.Errorf("emu: checkpoint has no window frames")
	}
	if !windowed && len(ck.Windows) != 1 {
		return fmt.Errorf("emu: flat checkpoint has %d window frames, want 1", len(ck.Windows))
	}
	for d, w := range ck.Windows {
		if len(w) != isa.WindowSlots {
			return fmt.Errorf("emu: checkpoint window frame %d has %d slots, want %d", d, len(w), isa.WindowSlots)
		}
	}
	if len(ck.WMasks) != len(ck.Windows) {
		return fmt.Errorf("emu: checkpoint has %d write masks for %d window frames", len(ck.WMasks), len(ck.Windows))
	}
	return nil
}

// RestoreCheckpoint replaces the machine's architectural state with the
// checkpoint's. The machine must be bound to the same program image and
// ABI mode the checkpoint was taken from.
func (m *Machine) RestoreCheckpoint(ck *Checkpoint) error {
	if err := ck.Validate(m.prog, m.cfg.Windowed); err != nil {
		return err
	}
	if err := m.mem.Restore(ck.Pages); err != nil {
		return err
	}
	m.pc = ck.PC
	copy(m.regs[globalCell:zeroCell], ck.Globals)
	m.depth = len(ck.Windows) - 1
	if len(m.saved) < m.depth {
		m.saved = make([]savedFrame, m.depth)
	}
	for d, w := range ck.Windows {
		var f frame
		copy(f[:], w)
		var nonzero uint32
		for s, v := range f {
			if v != 0 {
				nonzero |= 1 << s
			}
		}
		wmask, dead := ck.WMasks[d], nonzero&^ck.WMasks[d]
		if d == m.depth {
			copy(m.regs[:isa.WindowSlots], f[:])
			m.wmask, m.dead = wmask, dead
		} else {
			m.saved[d] = savedFrame{regs: f, wmask: wmask, dead: dead}
		}
	}
	m.Stats = ck.Stats
	m.Output.Reset()
	m.Output.Write(ck.Output)
	m.exited, m.exitCode = ck.Exited, ck.ExitCode
	return nil
}

// NewFromCheckpoint builds a machine for p and restores ck into it.
func NewFromCheckpoint(p *program.Program, cfg Config, ck *Checkpoint) (*Machine, error) {
	m := New(p, cfg)
	if err := m.RestoreCheckpoint(ck); err != nil {
		return nil, err
	}
	return m, nil
}

// FastForward executes exactly n instructions of p on the fast
// functional engine (FastRun) and returns the resulting checkpoint. It
// fails if the program exits or faults before the budget is reached.
func FastForward(p *program.Program, windowed bool, n uint64) (*Checkpoint, error) {
	m := New(p, Config{Windowed: windowed})
	executed, err := m.FastRun(n)
	if err != nil {
		return nil, err
	}
	if executed < n {
		return nil, fmt.Errorf("emu: program exited after %d of %d fast-forward instructions", executed, n)
	}
	return m.Checkpoint(), nil
}

// payload returns the canonical serialized form: the image with the
// checksum field cleared.
func (ck *Checkpoint) payload() ([]byte, error) {
	c := *ck
	c.Checksum = ""
	return json.Marshal(&c)
}

// ContentAddress returns the checkpoint's content hash: identical
// architectural states (including provenance) hash identically.
func (ck *Checkpoint) ContentAddress() (string, error) {
	b, err := ck.payload()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Encode writes the checkpoint as checksummed JSON.
func (ck *Checkpoint) Encode(w io.Writer) error {
	addr, err := ck.ContentAddress()
	if err != nil {
		return err
	}
	ck.Checksum = addr
	enc := json.NewEncoder(w)
	return enc.Encode(ck)
}

// DecodeCheckpoint reads a checkpoint written by Encode, verifying the
// schema version and the content checksum.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("emu: decoding checkpoint: %w", err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("emu: checkpoint version %d, this build reads %d", ck.Version, CheckpointVersion)
	}
	want := ck.Checksum
	if want == "" {
		return nil, fmt.Errorf("emu: checkpoint has no checksum")
	}
	got, err := ck.ContentAddress()
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("emu: checkpoint checksum mismatch (file corrupt?): stored %.12s, computed %.12s", want, got)
	}
	return &ck, nil
}
