package experiments

import (
	"errors"
	"slices"
	"testing"

	"vca/internal/asm"
	"vca/internal/core"
	"vca/internal/program"
)

// TestArchConfigMatchesCore walks the machine table over 1–4 threads and
// 1–1024 registers: Config's ok must be exactly whether core.New builds
// the machine, and every refusal must be core.ErrInfeasible — a "No
// Baseline" cell, never a malformed configuration.
func TestArchConfigMatchesCore(t *testing.T) {
	prog, err := asm.Assemble("main:\n        li a0, 0\n        syscall 0\n")
	if err != nil {
		t.Fatal(err)
	}
	for a := range archTable {
		arch := Arch(a)
		for threads := 1; threads <= 4; threads++ {
			progs := make([]*program.Program, threads)
			for i := range progs {
				progs[i] = prog
			}
			for regs := 1; regs <= 1024; regs++ {
				cfg, ok := arch.Config(threads, regs, 2)
				cfg.CoSim = false
				_, err := core.New(cfg, progs, arch.Windowed())
				if ok != (err == nil) {
					t.Fatalf("%s %dT/%d: Config ok=%v, core.New: %v", arch, threads, regs, ok, err)
				}
				if err != nil && !errors.Is(err, core.ErrInfeasible) {
					t.Fatalf("%s %dT/%d: refusal is not ErrInfeasible: %v", arch, threads, regs, err)
				}
			}
		}
	}
}

// TestArchNamesAndLabels pins the API names (and their order, which
// seeded sweep generators index into), the figure labels and the ABIs.
func TestArchNamesAndLabels(t *testing.T) {
	wantNames := []string{"baseline", "conv-windowed", "ideal-windowed", "vca-flat", "vca-windowed"}
	if got := ArchNames(); !slices.Equal(got, wantNames) {
		t.Fatalf("ArchNames() = %v, want %v", got, wantNames)
	}
	for _, c := range []struct {
		arch     Arch
		label    string
		windowed bool
	}{
		{ArchBaseline, "baseline", false},
		{ArchConvWindow, "register window", true},
		{ArchIdealWindow, "ideal", true},
		{ArchVCAFlat, "vca (flat)", false},
		{ArchVCAWindow, "vca", true},
	} {
		if got, ok := ArchByName(c.arch.String()); !ok || got != c.arch {
			t.Errorf("ArchByName(%q) = %v, %v", c.arch.String(), got, ok)
		}
		if c.arch.Label() != c.label {
			t.Errorf("%s: label %q, want %q", c.arch, c.arch.Label(), c.label)
		}
		if c.arch.Windowed() != c.windowed {
			t.Errorf("%s: Windowed() = %v", c.arch, c.arch.Windowed())
		}
	}
	if _, ok := ArchByName("conventional-windowed"); ok {
		t.Error("ArchByName accepted a name outside the table")
	}
	if Arch(99).String() != "?" || Arch(-1).Label() != "?" {
		t.Error("an Arch outside the table has a name")
	}
}
