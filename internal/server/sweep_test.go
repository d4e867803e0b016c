package server

import (
	"bytes"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
)

// FuzzSweepRequest drives the admission path every POST /v1/sweeps body
// takes, on a worker and on the shard router alike: decode as
// handleSubmit does, then ParsePriority and ExpandCells as Submit does.
// It must never panic, and an admitted sweep must be well formed: at
// most maxCells cells, one per point of the cross product, indexed
// 0..n-1 in order, every arch a public name, every register-file size
// and port count positive.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range []string{
		// docs/SERVICE.md's examples.
		`{"benchmarks": ["crafty"], "archs": ["baseline", "vca-windowed"], "phys_regs": [64, 256], "stop_after": 100000}`,
		`{"tenant": "alice", "priority": "interactive", "benchmarks": ["crafty,mesa"], "archs": ["vca-windowed"], "phys_regs": [96, 128, 160], "stop_after": 50000, "timeout_sec": 120}`,
		// Edges of each rule.
		`{"benchmarks": [" crafty , mesa "], "archs": ["vca-flat"], "phys_regs": [9223372036854775807], "dl1_ports": [1, 4]}`,
		`{"benchmarks": ["crafty"], "archs": ["baseline"], "phys_regs": [0]}`,
		`{"benchmarks": ["crafty"], "archs": ["baseline"], "phys_regs": [256], "dl1_ports": [-1]}`,
		`{"benchmarks": ["doom"], "archs": ["baseline"], "phys_regs": [256]}`,
		`{"benchmarks": ["crafty"], "archs": ["pdp11"], "phys_regs": [256]}`,
		`{"benchmarks": ["crafty"], "archs": ["baseline"], "phys_regs": [256], "priority": "urgent"}`,
		`{"benchmarks": ["crafty"], "archs": ["baseline"], "phys_regs": [256], "colour": "blue"}`,
		`{"benchmarks": [], "archs": ["baseline"], "phys_regs": [256]}`,
		`{"benchmarks": ["crafty"]}{"archs": ["baseline"]}`,
		`null`, `[]`, ``, `{`,
	} {
		f.Add([]byte(body))
	}
	const maxCells = 64
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSweepRequest(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 1<<20))
		if err != nil {
			return
		}
		if _, err := ParsePriority(req.Priority); err != nil {
			return
		}
		cells, err := ExpandCells(&req, maxCells)
		if err != nil {
			return
		}
		ports := max(len(req.DL1Ports), 1)
		if want := len(req.Archs) * len(req.PhysRegs) * ports * len(req.Benchmarks); len(cells) != want || want > maxCells {
			t.Fatalf("%d cells for a %d-point sweep (limit %d)", len(cells), want, maxCells)
		}
		for i, c := range cells {
			if c.Index != i {
				t.Fatalf("cell %d has index %d", i, c.Index)
			}
			if !slices.Contains(ArchNames(), c.Arch) {
				t.Fatalf("cell %d: arch %q admitted", i, c.Arch)
			}
			if c.PhysRegs <= 0 || c.DL1Ports <= 0 {
				t.Fatalf("cell %d: phys_regs %d, dl1_ports %d admitted", i, c.PhysRegs, c.DL1Ports)
			}
		}
	})
}

// TestExpandCellsSaturates: axes whose plain product overflows int
// (here to exactly math.MinInt) are refused as too large rather than
// passing the limit check and panicking in the allocation.
func TestExpandCellsSaturates(t *testing.T) {
	axis := func(n int, v string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	ints := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = 1
		}
		return out
	}
	req := SweepRequest{
		Benchmarks: axis(1<<15, "gap"),
		Archs:      axis(1<<16, "baseline"),
		PhysRegs:   ints(1 << 16),
		DL1Ports:   ints(1 << 16),
	}
	cells, err := ExpandCells(&req, DefaultMaxCellsPerSweep)
	if err == nil || !strings.Contains(err.Error(), "above the per-sweep limit") {
		t.Fatalf("ExpandCells = %d cells, %v; want the per-sweep limit error", len(cells), err)
	}
}
