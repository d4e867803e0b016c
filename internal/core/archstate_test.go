package core

import (
	"fmt"
	"testing"

	"vca/internal/emu"
	"vca/internal/minic"
	"vca/internal/program"
)

// fastForwardCheckpoint runs the functional engine for cut instructions
// and returns the resulting checkpoint.
func fastForwardCheckpoint(t *testing.T, p *program.Program, windowed bool, cut uint64) *emu.Checkpoint {
	t.Helper()
	fm := emu.New(p, emu.Config{Windowed: windowed})
	if _, err := fm.FastRun(cut); err != nil {
		t.Fatalf("FastRun(%d): %v", cut, err)
	}
	return fm.Checkpoint()
}

// TestInjectCheckpointResume fast-forwards half of each program
// functionally, transplants the state into every canonical detailed
// machine, and finishes the run there: the concatenated output and exit
// status must match an uninterrupted reference run. Co-simulation and
// the invariant checker stay on, so every post-splice commit is
// cross-checked and injection itself is audited by round-trip.
func TestInjectCheckpointResume(t *testing.T) {
	for _, tm := range testMachines() {
		for name, src := range map[string]string{"fib": srcFib, "memory": srcMemory} {
			t.Run(tm.name+"/"+name, func(t *testing.T) {
				abi := minic.ABIFlat
				if tm.windowed {
					abi = minic.ABIWindowed
				}
				p := buildProg(t, name, src, abi)

				// Uninterrupted reference, and the total it executes.
				ref := emu.New(p, emu.Config{Windowed: tm.windowed, MaxInsts: 10_000_000})
				if reason, err := ref.Run(); err != nil || reason != emu.StopExited {
					t.Fatalf("reference run: %v (%v)", err, reason)
				}
				want := ref.Output.String()
				cut := ref.Stats.Insts / 2
				ck := fastForwardCheckpoint(t, p, tm.windowed, cut)

				cfg := tm.cfg
				cfg.CoSim = true
				m, err := New(cfg, []*program.Program{p}, tm.windowed)
				if err != nil {
					t.Fatalf("new machine: %v", err)
				}
				if err := m.InjectCheckpoint(0, ck); err != nil {
					t.Fatalf("inject: %v", err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatalf("run after inject: %v", err)
				}
				tr := res.Threads[0]
				if !tr.Done || tr.ExitCode != 0 {
					t.Fatalf("thread did not exit cleanly: done=%v code=%d", tr.Done, tr.ExitCode)
				}
				if got := string(ck.Output) + tr.Output; got != want {
					t.Fatalf("output mismatch:\n  checkpoint %q\n  detailed   %q\n  want       %q",
						ck.Output, tr.Output, want)
				}
				if wantCommit := ref.Stats.Insts - ck.Insts; tr.Committed != wantCommit {
					t.Fatalf("committed %d insts after splice, want %d", tr.Committed, wantCommit)
				}
			})
		}
	}
}

// TestExtractCheckpointResume runs each canonical detailed machine under
// an exact-stop budget, from reset or from an injected fast-forward
// checkpoint, extracts the committed state, and checks it two ways: its
// content address equals the functional engine's checkpoint at the same
// instruction count, and finishing the program on the functional engine
// reproduces an uninterrupted reference run. Extraction internally
// audits the image against the co-simulation golden model.
//
// The budgets after a checkpoint at 1000 instructions end, on the
// conv-window machine, on a call that overflows the register windows and
// on a return that underflows them. The run must then keep cycling until
// the trap's injected spills or fills have committed (Machine.Run),
// or extraction finds a trap in flight and fails. On the VCA-window
// machines the first of them stops with a fill of a committed register
// in flight, and 3000+240 with a spill of one still queued in the ASTQ.
func TestExtractCheckpointResume(t *testing.T) {
	cases := []struct {
		start, budget uint64
		convTrap      bool // the budget's last commit traps on conv-window
	}{
		{0, 2000, false},
		{1000, 7, true},  // overflowing call
		{1000, 26, true}, // underflowing return
		{3000, 240, false},
	}
	for _, tm := range testMachines() {
		t.Run(tm.name, func(t *testing.T) {
			abi := minic.ABIFlat
			if tm.windowed {
				abi = minic.ABIWindowed
			}
			p := buildProg(t, "fib", srcFib, abi)
			want := refRun(t, p, tm.windowed)

			for _, c := range cases {
				t.Run(fmt.Sprintf("from%d+%d", c.start, c.budget), func(t *testing.T) {
					cfg := tm.cfg
					cfg.CoSim = true
					run := func(budget uint64) (*Machine, *Result) {
						t.Helper()
						cfg.StopAfter = budget
						m, err := New(cfg, []*program.Program{p}, tm.windowed)
						if err != nil {
							t.Fatalf("new machine: %v", err)
						}
						m.stopExact = true
						if c.start > 0 {
							if err := m.InjectCheckpoint(0, fastForwardCheckpoint(t, p, tm.windowed, c.start)); err != nil {
								t.Fatalf("inject: %v", err)
							}
						}
						res, err := m.Run()
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						return m, res
					}
					m, res := run(c.budget)
					if c.convTrap && tm.cfg.Window == WindowConventional {
						if _, prev := run(c.budget - 1); res.WindowTraps != prev.WindowTraps+1 {
							t.Fatalf("budget %d does not end on a window trap (%d traps, %d one earlier)",
								c.budget, res.WindowTraps, prev.WindowTraps)
						}
					}
					ck, err := m.extractCheckpoint(0)
					if err != nil {
						t.Fatalf("extract: %v", err)
					}
					if ck.Insts != c.start+c.budget {
						t.Fatalf("checkpoint at %d insts, want exactly %d", ck.Insts, c.start+c.budget)
					}
					gotAddr, err := ck.ContentAddress()
					if err != nil {
						t.Fatal(err)
					}
					wantAddr, err := fastForwardCheckpoint(t, p, tm.windowed, c.start+c.budget).ContentAddress()
					if err != nil {
						t.Fatal(err)
					}
					if gotAddr != wantAddr {
						t.Fatalf("detailed end state %.12s != functional state %.12s", gotAddr, wantAddr)
					}

					fm, err := emu.NewFromCheckpoint(p, emu.Config{Windowed: tm.windowed, MaxInsts: 10_000_000}, ck)
					if err != nil {
						t.Fatalf("resume from checkpoint: %v", err)
					}
					if reason, err := fm.Run(); err != nil || reason != emu.StopExited {
						t.Fatalf("functional resume: %v (%v)", err, reason)
					}
					if got := fm.Output.String(); got != want {
						t.Fatalf("output mismatch after extract+resume:\n  got  %q\n  want %q", got, want)
					}
				})
			}
		})
	}
}

// TestInjectExtractIdentity transplants a checkpoint in and immediately
// back out of each canonical machine: the round trip must be a content-
// addressed fixed point.
func TestInjectExtractIdentity(t *testing.T) {
	for _, tm := range testMachines() {
		t.Run(tm.name, func(t *testing.T) {
			abi := minic.ABIFlat
			if tm.windowed {
				abi = minic.ABIWindowed
			}
			p := buildProg(t, "fib", srcFib, abi)
			ck := fastForwardCheckpoint(t, p, tm.windowed, 3000)

			cfg := tm.cfg
			cfg.CoSim = true
			m, err := New(cfg, []*program.Program{p}, tm.windowed)
			if err != nil {
				t.Fatalf("new machine: %v", err)
			}
			if err := m.InjectCheckpoint(0, ck); err != nil {
				t.Fatalf("inject: %v", err)
			}
			out, err := m.extractCheckpoint(0)
			if err != nil {
				t.Fatalf("extract: %v", err)
			}
			wantAddr, err := ck.ContentAddress()
			if err != nil {
				t.Fatal(err)
			}
			gotAddr, err := out.ContentAddress()
			if err != nil {
				t.Fatal(err)
			}
			if gotAddr != wantAddr {
				t.Fatalf("round trip not a fixed point: in %.12s, out %.12s", wantAddr, gotAddr)
			}
		})
	}
}

// TestInjectCheckpointRejections covers the guard rails: injection after
// simulation has started, and injection of an exited image.
func TestInjectCheckpointRejections(t *testing.T) {
	p := buildProg(t, "fib", srcFib, minic.ABIFlat)
	ck := fastForwardCheckpoint(t, p, false, 1000)

	cfg := DefaultConfig(RenameConventional, WindowNone, 1, 128)
	cfg.MaxCycles = 100_000_000
	m, err := New(cfg, []*program.Program{p}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectCheckpoint(0, ck); err == nil {
		t.Fatal("inject after Run succeeded; want cycle-0 guard error")
	}

	// An exited image must be rejected even on a fresh machine.
	fm := emu.New(p, emu.Config{Windowed: false, MaxInsts: 10_000_000})
	if reason, err := fm.Run(); err != nil || reason != emu.StopExited {
		t.Fatalf("emu run: %v (%v)", err, reason)
	}
	exited := fm.Checkpoint()
	m2, err := New(cfg, []*program.Program{p}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.InjectCheckpoint(0, exited); err == nil {
		t.Fatal("inject of exited checkpoint succeeded; want rejection")
	}
}
