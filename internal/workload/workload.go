// Package workload provides the benchmark suite: fifteen synthetic
// programs written in mini-C, each named for a member of the paper's
// Table 2 benchmark set and calibrated to a similar point in the space
// that drives the evaluation — call frequency (which sets the windowed/
// flat path-length ratio), memory behavior, branch behavior, and integer
// versus floating-point mix. Every benchmark builds under both ABIs and
// prints a checksum so functional correctness is externally observable.
package workload

import (
	"fmt"
	"sync"

	"vca/internal/emu"
	"vca/internal/minic"
	"vca/internal/program"
)

// Benchmark is one suite member.
type Benchmark struct {
	Name string
	FP   bool
	// CallFrequent marks benchmarks that call at least once every ~500
	// instructions; the register-window experiments use only these
	// (§3.1).
	CallFrequent bool
	Source       string
}

// All returns the full suite in a stable order.
func All() []Benchmark {
	return []Benchmark{
		{Name: "bzip2_graphic", Source: srcBzip2, CallFrequent: true},
		{Name: "crafty", Source: srcCrafty, CallFrequent: true},
		{Name: "eon_rushmeier", Source: srcEon, FP: true, CallFrequent: true},
		{Name: "gap", Source: srcGap, CallFrequent: true},
		{Name: "gcc_expr", Source: srcGccExpr, CallFrequent: true},
		{Name: "gzip_graphic", Source: srcGzip, CallFrequent: true},
		{Name: "parser", Source: srcParser, CallFrequent: true},
		{Name: "perlbmk_535", Source: srcPerlbmk, CallFrequent: true},
		{Name: "twolf", Source: srcTwolf, CallFrequent: true},
		{Name: "vortex_2", Source: srcVortex, CallFrequent: true},
		{Name: "vpr_route", Source: srcVprRoute, CallFrequent: true},
		{Name: "ammp", Source: srcAmmp, FP: true, CallFrequent: true},
		{Name: "equake", Source: srcEquake, FP: true, CallFrequent: true},
		{Name: "mesa", Source: srcMesa, FP: true, CallFrequent: true},
		{Name: "wupwise", Source: srcWupwise, FP: true, CallFrequent: true},
	}
}

// ByName returns a benchmark by name.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// CallFrequent filters the suite to benchmarks that call often enough for
// register windows to matter — the §3.1 selection rule ("at least once
// every 500 instructions").
func CallFrequent() []Benchmark {
	var out []Benchmark
	for _, b := range All() {
		if b.CallFrequent {
			out = append(out, b)
		}
	}
	return out
}

// memo computes each key's value at most once per process. Callers of
// one key share a single computation (late callers wait for it); callers
// of distinct keys run concurrently, so parallel sweeps profile their
// benchmarks in parallel. Errors are kept like values: both memoized
// computations are deterministic, so a retry would fail the same way.
type memo[V any] struct {
	mu      sync.Mutex
	entries map[string]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (c *memo[V]) get(key string, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		if c.entries == nil {
			c.entries = map[string]*memoEntry[V]{}
		}
		e = &memoEntry[V]{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = compute() })
	return e.v, e.err
}

var builds memo[*program.Program]

// Build compiles the benchmark under an ABI (cached).
func (b Benchmark) Build(abi minic.ABI) (*program.Program, error) {
	return builds.get(b.Name+"/"+abi.String(), func() (*program.Program, error) {
		return minic.Build(b.Name, b.Source, abi)
	})
}

// Profile holds the functional-simulation measurements of one benchmark
// under one ABI (the quantities §3.1-3.2 need).
type Profile struct {
	Stats  emu.Stats
	Output string
}

var profiles memo[*Profile]

// Profile runs the benchmark to completion on the functional emulator
// (cached) and returns its dynamic statistics.
func (b Benchmark) Profile(abi minic.ABI) (*Profile, error) {
	return profiles.get(b.Name+"/"+abi.String(), func() (*Profile, error) {
		prog, err := b.Build(abi)
		if err != nil {
			return nil, err
		}
		m := emu.New(prog, emu.Config{Windowed: abi == minic.ABIWindowed, MaxInsts: 1 << 32})
		reason, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("workload %s (%v): %w", b.Name, abi, err)
		}
		if reason != emu.StopExited {
			return nil, fmt.Errorf("workload %s (%v): stopped: %v", b.Name, abi, reason)
		}
		if code, _ := m.Exited(); !code {
			return nil, fmt.Errorf("workload %s: did not exit", b.Name)
		}
		return &Profile{Stats: m.Stats, Output: m.Output.String()}, nil
	})
}

// PathLengthRatio returns dynamic-instruction-count(windowed) divided by
// dynamic-instruction-count(flat) — one row of Table 2.
func (b Benchmark) PathLengthRatio() (float64, error) {
	flat, err := b.Profile(minic.ABIFlat)
	if err != nil {
		return 0, err
	}
	win, err := b.Profile(minic.ABIWindowed)
	if err != nil {
		return 0, err
	}
	if flat.Output != win.Output {
		return 0, fmt.Errorf("workload %s: ABI outputs differ: %q vs %q", b.Name, flat.Output, win.Output)
	}
	return float64(win.Stats.Insts) / float64(flat.Stats.Insts), nil
}
