package core

import (
	"reflect"
	"testing"
	"unsafe"

	"vca/internal/minic"
	"vca/internal/program"
)

// TestRecycledUopsCarryNoState guards newUop's partial reset: it zeroes
// only uopHot, so every other uop field must be written before it is
// read on each path that reads it. Each machine runs twice, once with an
// empty uop pool and once with a pool of uops whose every field holds a
// non-zero garbage pattern, so that every uop the run uses starts out as
// garbage; the two runs must agree on cycles, outputs and every counter.
// The cells cover both renamers, every window model and SMT, and each
// one squashes, makes syscalls and (on windowed machines) traps, spills
// or fills.
func TestRecycledUopsCarryNoState(t *testing.T) {
	fibW := buildProg(t, "fib", srcFib, minic.ABIWindowed)
	cases := []struct {
		name   string
		rename RenameModel
		window WindowModel
		regs   int
		progs  []*program.Program
	}{
		{"baseline", RenameConventional, WindowNone, 256, []*program.Program{buildProg(t, "fib", srcFib, minic.ABIFlat)}},
		{"conv-windowed", RenameConventional, WindowConventional, 128, []*program.Program{fibW}},
		{"vca-windowed", RenameVCA, WindowVCA, 64, []*program.Program{fibW}},
		{"ideal-windowed", RenameVCA, WindowIdeal, 64, []*program.Program{fibW}},
		{"vca-windowed-smt", RenameVCA, WindowVCA, 128, []*program.Program{fibW, buildProg(t, "float", srcFloat, minic.ABIWindowed)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.rename, tc.window, len(tc.progs), tc.regs)
			cfg.Check = true // the invariant checker reads scheduler state too
			run := func(garbage int) *Result {
				t.Helper()
				m, err := New(cfg, tc.progs, tc.window != WindowNone)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < garbage; i++ {
					u := new(uop)
					fillGarbage(t, reflect.ValueOf(u).Elem())
					m.uopPool = append(m.uopPool, u)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			clean := run(0)
			// Stale state may also stall the machine: fail, do not hang.
			cfg.MaxCycles = 4*clean.Cycles + 1000
			dirty := run(1024)

			if clean.Squashed == 0 {
				t.Error("the run squashed nothing")
			}
			for i, th := range clean.Threads {
				if !th.Done || th.Output == "" {
					t.Errorf("thread %d: done=%v output %q; want an exited thread that printed", i, th.Done, th.Output)
				}
			}
			switch {
			case tc.window == WindowConventional && clean.WindowTraps == 0:
				t.Error("the conventional-window run took no window trap")
			case tc.window == WindowVCA && (clean.VCAStats.Spills == 0 || clean.VCAStats.Fills == 0):
				t.Errorf("the VCA run spilled %d and filled %d registers; want both", clean.VCAStats.Spills, clean.VCAStats.Fills)
			case tc.window == WindowIdeal && clean.VCAStats.Fills == 0:
				t.Error("the ideal-window run filled no register")
			}

			if clean.Cycles != dirty.Cycles {
				t.Errorf("cycles: %d with an empty pool, %d with a garbage pool", clean.Cycles, dirty.Cycles)
			}
			for i := range clean.Threads {
				if c, d := clean.Threads[i].Output, dirty.Threads[i].Output; c != d {
					t.Errorf("thread %d output: %q with an empty pool, %q with a garbage pool", i, c, d)
				}
			}
			cc, dc := clean.Metrics.CounterMap(), dirty.Metrics.CounterMap()
			for name, v := range cc {
				if dc[name] != v {
					t.Errorf("counter %s: %d with an empty pool, %d with a garbage pool", name, v, dc[name])
				}
			}
			if len(cc) != len(dc) {
				t.Errorf("%d counters with an empty pool, %d with a garbage pool", len(cc), len(dc))
			}
			if !reflect.DeepEqual(clean, dirty) {
				t.Error("results differ between an empty and a garbage uop pool")
			}
		})
	}
}

// TestUopSize holds the uop in Go's 256-byte size class (241 to 256
// bytes), whose objects start on cache-line boundaries: the field order
// in uop groups fields by cache line on that assumption.
func TestUopSize(t *testing.T) {
	if got := unsafe.Sizeof(uop{}); got <= 240 || got > 256 {
		t.Errorf("uop is %d bytes, want 241 to 256: see DESIGN.md §8 \"Pooled uops\"", got)
	}
}

// fillGarbage sets every field of the addressable value v, exported or
// not, to a non-zero pattern. A pointer gets a fresh garbage-filled
// target, so the garbage collector only ever sees valid pointers.
func fillGarbage(t *testing.T, v reflect.Value) {
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	const pattern = 0x5a5a_5a5a_5a5a_5a5a
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(pattern)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(pattern)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillGarbage(t, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillGarbage(t, v.Field(i))
		}
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillGarbage(t, p.Elem())
		v.Set(p)
	default:
		t.Fatalf("fillGarbage: no pattern for a %s field", v.Kind())
	}
}
