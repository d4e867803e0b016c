// Architectural state transplant: moving a functional checkpoint
// (emu.Checkpoint) into and out of the detailed machine. Injection is
// the fast-forward handoff — N instructions run at functional speed,
// then the detailed core starts from the resulting state as if it had
// simulated them. Extraction reads the committed architectural state
// back out of the detailed structures (committed rename maps, physical
// registers, backing store, committed memory) and is cross-audited
// against the co-simulation golden model, so a transplant can never
// silently lose state.
//
// Per-substrate placement rules (the inverse of how each machine reads
// architectural registers):
//
//   - Conventional, flat: every architectural register has a committed
//     physical mapping; values go straight into the physical register
//     file via the committed map.
//   - Conventional, windowed: the nwin youngest window frames are
//     resident in the register file (winBase tracks the oldest); deeper
//     frames live in the backing store at windowAddr, exactly where a
//     window-overflow trap would have spilled them.
//   - VCA (flat, windowed, ideal): committed register state is
//     memory-mapped (§2.1.1); values are written to the backing store at
//     gbp/wbp-relative addresses and fill into physical registers on
//     demand. The rename table starts empty, so no table repair is
//     needed.
//
// Memory pages at or above program.RegSpaceBase are microarchitectural
// (the register backing store) and never cross the transplant boundary:
// injection reconstructs them from the checkpoint's window frames, and
// extraction filters them out of the page snapshot.
package core

import (
	"fmt"

	"vca/internal/emu"
	"vca/internal/isa"
	"vca/internal/program"
)

// ckRegValue reads the architectural value of register r from a
// checkpoint (current-frame view for windowed registers).
func ckRegValue(ck *emu.Checkpoint, r isa.Reg) uint64 {
	if r.IsZero() {
		return 0
	}
	if r.IsWindowed() {
		return ck.Windows[len(ck.Windows)-1][r.WindowSlot()]
	}
	return ck.Globals[r.GlobalSlot()]
}

// InjectCheckpoint installs a checkpoint as thread t's initial
// architectural state. It must be called after New and before Run: the
// machine must not have simulated a cycle yet. When the invariant
// checker is enabled (Config.Check), injection immediately round-trips
// the state through extractCheckpoint and fails on any difference — the
// state-transplant audit.
func (m *Machine) InjectCheckpoint(t int, ck *emu.Checkpoint) error {
	if t < 0 || t >= len(m.threads) {
		return fmt.Errorf("core: no thread %d", t)
	}
	if m.cycle != 0 {
		return fmt.Errorf("core: InjectCheckpoint must run before Run (cycle %d)", m.cycle)
	}
	th := m.threads[t]
	if err := ck.Validate(th.prog, th.windowed); err != nil {
		return err
	}
	if ck.Exited {
		return fmt.Errorf("core: checkpoint is of an exited program (status %d)", ck.ExitCode)
	}

	// Committed memory image first; register placement below may extend
	// it (non-resident conventional windows, the VCA backing store).
	if err := th.mem.Restore(ck.Pages); err != nil {
		return err
	}
	th.pc, th.commitPC = ck.PC, ck.PC

	depth := len(ck.Windows) - 1
	switch m.cfg.Rename {
	case RenameConventional:
		if m.cfg.Window == WindowConventional {
			th.specDepth, th.commitDepth = depth, depth
			th.winBase = depth - m.nwin + 1
			if th.winBase < 0 {
				th.winBase = 0
			}
			for k := 0; k <= depth; k++ {
				for s := 0; s < isa.WindowSlots; s++ {
					v := ck.Windows[k][s]
					if k >= th.winBase {
						m.physVal[m.conv.Lookup(t, m.winSlotLogical(k, s))] = v
					} else {
						th.mem.Write(m.windowAddr(th, k)+8*uint64(s), 8, v)
					}
				}
			}
			for r := isa.Reg(0); r < isa.Reg(isa.NumArchRegs); r++ {
				if r.IsZero() || r.IsWindowed() {
					continue
				}
				m.physVal[m.conv.Lookup(t, r.GlobalSlot())] = ck.Globals[r.GlobalSlot()]
			}
		} else {
			for r := isa.Reg(0); r < isa.Reg(isa.NumArchRegs); r++ {
				if r.IsZero() {
					continue
				}
				m.physVal[m.conv.Lookup(t, int(r))] = ckRegValue(ck, r)
			}
		}
	case RenameVCA:
		if m.cfg.Window == WindowNone {
			for r := isa.Reg(0); r < isa.Reg(isa.NumArchRegs); r++ {
				if r.IsZero() {
					continue
				}
				th.mem.Write(th.gbp+8*uint64(r), 8, ckRegValue(ck, r))
			}
		} else {
			wbp := m.windowAddr(th, depth)
			th.specWBP, th.commitWBP = wbp, wbp
			for k := 0; k <= depth; k++ {
				base := m.windowAddr(th, k)
				for s := 0; s < isa.WindowSlots; s++ {
					th.mem.Write(base+8*uint64(s), 8, ck.Windows[k][s])
				}
			}
			for r := isa.Reg(0); r < isa.Reg(isa.NumArchRegs); r++ {
				if r.IsZero() || r.IsWindowed() {
					continue
				}
				th.mem.Write(th.gbp+8*uint64(r.GlobalSlot()), 8, ck.Globals[r.GlobalSlot()])
			}
		}
	}

	// The co-simulation golden model resumes from the same image, so
	// commit-time cross-checking continues seamlessly across the splice.
	if th.ref != nil {
		if err := th.ref.RestoreCheckpoint(ck); err != nil {
			return err
		}
	}

	if m.cfg.Check && th.ref != nil {
		ex, err := m.extractCheckpoint(t)
		if err != nil {
			return fmt.Errorf("core: state-transplant audit: %w", err)
		}
		if err := auditCheckpoints(ck, ex); err != nil {
			return fmt.Errorf("core: state-transplant audit after inject: %w", err)
		}
	}
	return nil
}

// extractCheckpoint reads thread t's committed architectural state out
// of the detailed machine as a checkpoint image. It requires
// co-simulation (the golden model carries the execution provenance —
// cumulative instruction statistics and program output — and serves as
// the audit reference) and a drained window-trap state; call it before
// Run or after Run has returned.
//
// The extracted image is audited bit-for-bit against the golden model's
// own checkpoint before being returned: any difference means the
// detailed machine's committed state diverged from architectural truth,
// and extraction fails rather than propagating it.
func (m *Machine) extractCheckpoint(t int) (*emu.Checkpoint, error) {
	if t < 0 || t >= len(m.threads) {
		return nil, fmt.Errorf("core: no thread %d", t)
	}
	th := m.threads[t]
	if th.ref == nil {
		return nil, fmt.Errorf("core: extractCheckpoint requires co-simulation (Config.CoSim)")
	}
	if th.injectedLive > 0 || th.injectPending() > 0 {
		return nil, fmt.Errorf("core: thread %d has a window trap in flight; committed window state is incomplete", t)
	}

	golden := th.ref.Checkpoint()

	depth := 0
	switch m.cfg.Window {
	case WindowConventional:
		depth = th.commitDepth
	case WindowVCA, WindowIdeal:
		_, wbpTop := program.ThreadRegSpace(t)
		depth = int((wbpTop - th.commitWBP) / isa.WindowBytes)
	}

	ck := &emu.Checkpoint{
		Version:     emu.CheckpointVersion,
		Program:     th.prog.Name,
		ProgramHash: th.prog.Digest(),
		Windowed:    th.windowed,
		PC:          th.commitPC,
		Globals:     make([]uint64, isa.GlobalSlots),
		Windows:     make([][]uint64, depth+1),
		Exited:      th.done,
		ExitCode:    th.exitCode,
	}
	for k := range ck.Windows {
		ck.Windows[k] = make([]uint64, isa.WindowSlots)
	}

	switch m.cfg.Rename {
	case RenameConventional:
		if m.cfg.Window == WindowConventional {
			for k := 0; k <= depth; k++ {
				for s := 0; s < isa.WindowSlots; s++ {
					if k >= th.winBase {
						ck.Windows[k][s] = m.physVal[m.conv.CommittedLookup(t, m.winSlotLogical(k, s))]
					} else {
						ck.Windows[k][s] = th.mem.Read(m.windowAddr(th, k)+8*uint64(s), 8)
					}
				}
			}
			for r := isa.Reg(0); r < isa.Reg(isa.NumArchRegs); r++ {
				if r.IsZero() || r.IsWindowed() {
					continue
				}
				ck.Globals[r.GlobalSlot()] = m.physVal[m.conv.CommittedLookup(t, r.GlobalSlot())]
			}
		} else {
			for r := isa.Reg(0); r < isa.Reg(isa.NumArchRegs); r++ {
				if r.IsZero() {
					continue
				}
				v := m.physVal[m.conv.CommittedLookup(t, int(r))]
				if r.IsWindowed() {
					ck.Windows[0][r.WindowSlot()] = v
				} else {
					ck.Globals[r.GlobalSlot()] = v
				}
			}
		}
	case RenameVCA:
		// Committed VCA state is memory-mapped, except that dirty
		// committed versions are cached in physical registers (§2.1.2).
		// A committed register whose fill is still in flight holds no
		// value yet; its value is the one the fill will read: the newest
		// spill to the address the ASTQ has not issued, or memory.
		committed := func(addr uint64) uint64 {
			if p, ok := m.vca.CommittedPhys(addr); ok && m.physReady[p] {
				return m.physVal[p]
			}
			for i := len(m.astq) - 1; i >= m.astqHead; i-- {
				if e := &m.astq[i]; e.op.IsSpill && e.op.Addr == addr {
					return e.op.Value
				}
			}
			return th.mem.Read(addr, 8)
		}
		if m.cfg.Window == WindowNone {
			for r := isa.Reg(0); r < isa.Reg(isa.NumArchRegs); r++ {
				if r.IsZero() {
					continue
				}
				v := committed(th.gbp + 8*uint64(r))
				if r.IsWindowed() {
					ck.Windows[0][r.WindowSlot()] = v
				} else {
					ck.Globals[r.GlobalSlot()] = v
				}
			}
		} else {
			for k := 0; k <= depth; k++ {
				base := m.windowAddr(th, k)
				for s := 0; s < isa.WindowSlots; s++ {
					ck.Windows[k][s] = committed(base + 8*uint64(s))
				}
			}
			for r := isa.Reg(0); r < isa.Reg(isa.NumArchRegs); r++ {
				if r.IsZero() || r.IsWindowed() {
					continue
				}
				ck.Globals[r.GlobalSlot()] = committed(th.gbp + 8*uint64(r.GlobalSlot()))
			}
		}
	}

	// Canonicalize architecturally-dead window slots. A slot never
	// written since its frame was pushed reads as zero functionally, but
	// the detailed machine holds whatever was last in that physical
	// register or backing-store word (fresh frames are not zeroed in
	// hardware). The golden model's write masks identify dead slots;
	// their canonical value is the golden model's. Live slots keep the
	// detailed machine's value and are audited below.
	if len(golden.Windows) == len(ck.Windows) {
		for k := range ck.Windows {
			mask := golden.WMasks[k]
			for s := range ck.Windows[k] {
				if mask&(1<<uint(s)) == 0 {
					ck.Windows[k][s] = golden.Windows[k][s]
				}
			}
		}
	}
	ck.WMasks = append([]uint32(nil), golden.WMasks...)

	// Committed program memory, minus the microarchitectural backing
	// store.
	for _, pg := range th.mem.Snapshot() {
		if pg.Addr < program.RegSpaceBase {
			ck.Pages = append(ck.Pages, pg)
		}
	}

	// Execution provenance comes from the golden model, which has
	// stepped exactly the committed instruction stream.
	ck.Stats = th.ref.Stats
	ck.Insts = th.ref.Stats.Insts
	ck.Output = append([]byte(nil), th.ref.Output.Bytes()...)

	// The transplant audit: the detailed machine's committed state must
	// be bit-identical to the golden model's (dead slots canonicalized
	// above; everything else compared for real).
	if err := auditCheckpoints(golden, ck); err != nil {
		return nil, fmt.Errorf("core: state-transplant audit on extract (thread %d): %w", t, err)
	}
	return ck, nil
}

// auditCheckpoints compares two checkpoint images component-by-component
// and reports the first difference (ref is the golden/expected image).
func auditCheckpoints(ref, got *emu.Checkpoint) error {
	if ref.PC != got.PC {
		return fmt.Errorf("pc differs: golden %#x, detailed %#x", ref.PC, got.PC)
	}
	if len(ref.Windows) != len(got.Windows) {
		return fmt.Errorf("window depth differs: golden %d, detailed %d", len(ref.Windows)-1, len(got.Windows)-1)
	}
	for k := range ref.Windows {
		for s := range ref.Windows[k] {
			if ref.Windows[k][s] != got.Windows[k][s] {
				return fmt.Errorf("window frame %d slot %d differs: golden %#x, detailed %#x",
					k, s, ref.Windows[k][s], got.Windows[k][s])
			}
		}
	}
	for i := range ref.Globals {
		if ref.Globals[i] != got.Globals[i] {
			return fmt.Errorf("global slot %d differs: golden %#x, detailed %#x", i, ref.Globals[i], got.Globals[i])
		}
	}
	if ref.Exited != got.Exited || ref.ExitCode != got.ExitCode {
		return fmt.Errorf("exit state differs: golden (%v,%d), detailed (%v,%d)",
			ref.Exited, ref.ExitCode, got.Exited, got.ExitCode)
	}
	if len(ref.Pages) != len(got.Pages) {
		return fmt.Errorf("memory image differs: golden %d pages, detailed %d", len(ref.Pages), len(got.Pages))
	}
	for i := range ref.Pages {
		if ref.Pages[i].Addr != got.Pages[i].Addr {
			return fmt.Errorf("memory image differs: page %d at golden %#x, detailed %#x",
				i, ref.Pages[i].Addr, got.Pages[i].Addr)
		}
		for j := range ref.Pages[i].Data {
			if ref.Pages[i].Data[j] != got.Pages[i].Data[j] {
				return fmt.Errorf("memory differs at %#x: golden %#x, detailed %#x",
					ref.Pages[i].Addr+uint64(j), ref.Pages[i].Data[j], got.Pages[i].Data[j])
			}
		}
	}
	refAddr, err := ref.ContentAddress()
	if err != nil {
		return err
	}
	gotAddr, err := got.ContentAddress()
	if err != nil {
		return err
	}
	if refAddr != gotAddr {
		return fmt.Errorf("content address differs: golden %.12s, detailed %.12s", refAddr, gotAddr)
	}
	return nil
}
