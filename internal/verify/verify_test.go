package verify

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"vca/internal/progen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRunOneCanonicalSpecs runs one fixed program spec on a
// representative machine from each rename/window family.
func TestRunOneCanonicalSpecs(t *testing.T) {
	ps := ProgramSpec{Seed: 1234, Gen: progen.Config{
		Helpers: 2, Blocks: 10, Loops: true, Aliasing: true, Recursion: true, MaxRecDepth: 4,
	}}
	specs := []MachineSpec{
		{Rename: "conventional", Window: "none", Threads: 1, PhysRegs: 128},
		{Rename: "conventional", Window: "conv", Threads: 1, PhysRegs: 160},
		{Rename: "vca", Window: "none", Threads: 2, PhysRegs: 96},
		{Rename: "vca", Window: "ideal", Threads: 1, PhysRegs: 128},
		{Rename: "vca", Window: "vca", Threads: 1, PhysRegs: 56},
	}
	for _, ms := range specs {
		if err := RunOne(ms, ps); err != nil {
			t.Errorf("%s/%s: %v", ms.Rename, ms.Window, err)
		}
	}
}

// TestSweepFixedSeed runs the sweep the `make ci` target uses, scaled
// down: a fixed seed must produce zero divergences.
func TestSweepFixedSeed(t *testing.T) {
	n := 4
	if testing.Short() {
		n = 2
	}
	err := Sweep(Plan(7, n), 0, Lockstep, func(_ int, repros []Repro, _ error) {
		for _, r := range repros {
			b, _ := json.MarshalIndent(r, "", "  ")
			t.Errorf("sweep divergence:\n%s", b)
		}
	})
	if err != nil {
		t.Errorf("sweep harness failure: %v", err)
	}
}

func TestSampleSpecAlwaysConstructs(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		ms, ps := SampleSpec(r)
		if !ms.Constructs() {
			t.Fatalf("sampled spec does not construct: %+v", ms)
		}
		if ps.Gen.Blocks == 0 {
			t.Fatalf("sampled program spec has no blocks: %+v", ps)
		}
	}
}

// TestShrinkGolden drives the shrinker with a synthetic failure
// predicate and compares the minimal pair against a golden fixture —
// the proof that greedy shrinking actually reaches the minimum and
// stays deterministic. Regenerate with -update.
func TestShrinkGolden(t *testing.T) {
	ms := MachineSpec{
		Rename: "vca", Window: "vca", Threads: 4, PhysRegs: 200,
		Width: 8, ROBSize: 256, IQSize: 64, LSQSize: 64,
	}
	ps := ProgramSpec{Seed: 42, Gen: progen.Config{
		Helpers: 4, WindowLadder: 5, Recursion: true, MaxRecDepth: 9,
		Blocks: 32, Loops: true, Aliasing: true,
	}}
	// Synthetic failure: an aliasing bug that needs a few blocks to
	// manifest and at least two-wide issue, independent of everything
	// else. calls counts predicate evaluations (shrink cost).
	calls := 0
	fails := func(m MachineSpec, p ProgramSpec) bool {
		calls++
		return p.Gen.Aliasing && p.Gen.Blocks >= 4 && m.Width >= 2
	}
	if !fails(ms, ps) {
		t.Fatal("initial pair must fail")
	}
	sm, sp := Shrink(ms, ps, fails)
	if !fails(sm, sp) {
		t.Fatal("shrunk pair no longer fails")
	}
	if sp.Gen.Blocks != 4 || sm.Width != 2 || !sp.Gen.Aliasing {
		t.Errorf("not minimal: blocks=%d width=%d aliasing=%v", sp.Gen.Blocks, sm.Width, sp.Gen.Aliasing)
	}
	if sp.Gen.Recursion || sp.Gen.Loops || sp.Gen.Helpers != 0 || sp.Gen.WindowLadder != 0 {
		t.Errorf("irrelevant program features survived: %+v", sp.Gen)
	}
	if calls > 200 {
		t.Errorf("shrinker used %d predicate evaluations, want <= 200", calls)
	}

	got, err := json.MarshalIndent(Repro{Machine: sm, Program: sp, Failure: "synthetic"}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "shrink_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("shrunk repro differs from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestReproRoundTrips checks the JSON wire format survives a round trip
// (the sweep prints repros for humans to re-run).
func TestReproRoundTrips(t *testing.T) {
	in := Repro{
		Machine: MachineSpec{Rename: "vca", Window: "none", Threads: 2, PhysRegs: 96, TableSets: 32},
		Program: ProgramSpec{Seed: 5, Gen: progen.Config{Blocks: 8, Aliasing: true}},
		Failure: "example",
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Repro
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip changed the repro: %+v vs %+v", out, in)
	}
}
