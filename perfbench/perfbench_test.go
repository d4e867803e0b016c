package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"vca/internal/experiments"
	"vca/internal/server"
	"vca/internal/workload"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},   // 91..100 lie beyond: exactly 10
		{99, 0.90, 90, false},   // 91..99: 9 beyond
		{1000, 0.99, 990, true}, // 991..1000
		{999, 0.99, 990, false},
		{10, 0.50, 5, false},
	} {
		got, ok := tailPercentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func ms2d(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		{id: 1, track: 1, name: "bench.cell", start: ms2d(0), end: ms2d(100)},
		{id: 2, parent: 1, track: 1, name: "core.New", start: ms2d(10), end: ms2d(40)},
		{id: 3, parent: 1, track: 1, name: "core.Run", start: ms2d(30), end: ms2d(60)}, // overlaps its sibling
		{id: 4, parent: 2, track: 1, name: "workload.Build", start: ms2d(15), end: ms2d(20)},
		{id: 5, parent: 3, track: 1, name: "emu.FastForward", start: ms2d(55), end: ms2d(70)}, // overruns its parent
	}
	want := map[string]time.Duration{
		"bench.cell":      ms2d(50), // 100 minus the children's union [10,60]
		"core.New":        ms2d(25), // 30 minus its child's 5
		"core.Run":        ms2d(25), // 30 minus the clipped [55,60]
		"workload.Build":  ms2d(5),
		"emu.FastForward": ms2d(15),
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestUnattributedIgnoresBenchSpans(t *testing.T) {
	spans := []span{
		{id: 1, track: 1, name: "bench.cell", start: ms2d(0), end: ms2d(100)},
		{id: 2, parent: 1, track: 1, name: "core.Run", start: ms2d(0), end: ms2d(50)},
		{id: 3, track: 2, name: "core.Run", start: ms2d(25), end: ms2d(75)},
		{id: 4, track: 2, name: "core.New", start: ms2d(50), end: ms2d(80)},
	}
	// Track 1 is covered for 50 of 100, track 2 for [25,80] = 55.
	if got, want := unattributedFrac(spans, 2, 0, ms2d(100)), 1-105.0/200; abs(got-want) > 1e-12 {
		t.Errorf("unattributedFrac = %v, want %v", got, want)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestDigestCatchesOnePerturbedCounter(t *testing.T) {
	b, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	c := newCell(experiments.ArchVCAFlat, 256, b)
	ref, err := runRegwinCell(c, 0, 0, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	rf := &refFile{Cells: map[string]refEntry{c.name: {Digest: cellDigest(ref.res, ref.counters)}}}

	again, err := runRegwinCell(c, 0, 0, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rf.matches(c.name, cellDigest(again.res, again.counters)) {
		t.Fatal("a rerun of the same cell does not match its reference")
	}
	if !again.res.Metrics.Perturb("rename.vca.dest_allocs", 1) {
		t.Fatal("counter rename.vca.dest_allocs not found")
	}
	if rf.matches(c.name, cellDigest(again.res, again.res.Metrics.CounterMap())) {
		t.Error("a perturbed counter still matches the reference")
	}
	if rf.matches("no/such/cell", cellDigest(ref.res, ref.counters)) {
		t.Error("a cell without a reference matches")
	}
}

func TestStreamCheckCatchesOneAlteredByte(t *testing.T) {
	req := server.SweepRequest{
		Benchmarks: []string{"parser"},
		Archs:      []string{"baseline", "vca-flat"},
		PhysRegs:   []int{64, 256},
		StopAfter:  300,
	}
	cells, err := server.ExpandCells(&req, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ref, err := referenceFor(cells)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() [][]byte {
		out := make([][]byte, len(ref))
		for i, l := range ref {
			out[len(ref)-1-i] = bytes.Clone(l) // completion order need not be index order
		}
		return out
	}
	if n := streamFailures(clone(), ref); n != 0 {
		t.Fatalf("an unaltered stream has %d failures", n)
	}
	altered := clone()
	i := bytes.Index(altered[0], []byte(`"cycles":`)) + len(`"cycles":`)
	altered[0][i] ^= 1 // one digit of the cycle count
	if n := streamFailures(altered, ref); n != 1 {
		t.Errorf("one altered byte gives %d failures, want 1", n)
	}
	if n := streamFailures(clone()[1:], ref); n != 1 {
		t.Errorf("a missing line gives %d failures, want 1", n)
	}
	dup := append(clone(), bytes.Clone(ref[0]))
	if n := streamFailures(dup, ref); n != 1 {
		t.Errorf("a duplicated line gives %d failures, want 1", n)
	}
	if c := lineCommitted(ref[len(ref)-1]); c == 0 {
		t.Error("lineCommitted read 0 from a simulated cell")
	}
}

func TestGenSweepIsSeededAndKeepsItsShape(t *testing.T) {
	gen := func(seed int64) server.SweepRequest {
		rng := rand.New(rand.NewSource(seed))
		req, err := genSweep(rng, replayShape, benchGroups(rng, replayGroup)[0])
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	a, b := gen(7), gen(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 7 gave two sweeps:\n%+v\n%+v", a, b)
	}
	for seed := int64(1); seed <= 20; seed++ {
		m := cellMix(gen(seed))
		if m.cells != 45 || m.valid != replayShape.valid || m.pressure != replayShape.pressure || m.idealPressure != replayShape.idealPressure {
			t.Errorf("seed %d: mix %+v misses the shape", seed, m)
		}
	}
}

// TestBenchmarkFileNamesEveryMetric keeps BENCHMARK.json and the
// metrics this program prints in step.
func TestBenchmarkFileNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
}
