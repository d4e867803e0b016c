package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestMergeCountersAndGauges(t *testing.T) {
	a := []Sample{
		{Name: "server.cells_done", Kind: "counter", Unit: "events", Desc: "cells", Value: 3},
		{Name: "server.queue_depth", Kind: "gauge", Unit: "events", Value: 2},
		{Name: "only.in_a", Kind: "counter", Unit: "events", Value: 7},
	}
	b := []Sample{
		{Name: "server.queue_depth", Kind: "gauge", Unit: "events", Value: 5},
		{Name: "server.cells_done", Kind: "counter", Unit: "events", Value: 4},
		{Name: "only.in_b", Kind: "counter", Unit: "events", Value: 1},
	}
	got := Merge(a, b)
	want := []Sample{
		{Name: "only.in_a", Kind: "counter", Unit: "events", Value: 7},
		{Name: "only.in_b", Kind: "counter", Unit: "events", Value: 1},
		{Name: "server.cells_done", Kind: "counter", Unit: "events", Desc: "cells", Value: 7},
		{Name: "server.queue_depth", Kind: "gauge", Unit: "events", Value: 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge =\n%+v\nwant\n%+v", got, want)
	}
}

func TestMergeHistograms(t *testing.T) {
	a := []Sample{{
		Name: "server.latency.cell_us", Kind: "histogram", Unit: "us",
		Count: 3, Sum: 30, Mean: 10,
		Buckets: []Bucket{{Lo: 0, Hi: 8, Count: 1}, {Lo: 8, Hi: 16, Count: 2}},
	}}
	b := []Sample{{
		Name: "server.latency.cell_us", Kind: "histogram", Unit: "us",
		Count: 2, Sum: 50, Mean: 25,
		Buckets: []Bucket{{Lo: 8, Hi: 16, Count: 1}, {Lo: 32, Hi: 0, Count: 1}},
	}}
	got := Merge(a, b)
	if len(got) != 1 {
		t.Fatalf("merged %d samples, want 1", len(got))
	}
	m := got[0]
	if m.Count != 5 || m.Sum != 80 || m.Mean != 16 {
		t.Errorf("count/sum/mean = %d/%d/%v, want 5/80/16", m.Count, m.Sum, m.Mean)
	}
	wantBuckets := []Bucket{{Lo: 0, Hi: 8, Count: 1}, {Lo: 8, Hi: 16, Count: 3}, {Lo: 32, Hi: 0, Count: 1}}
	if !reflect.DeepEqual(m.Buckets, wantBuckets) {
		t.Errorf("buckets = %+v, want %+v", m.Buckets, wantBuckets)
	}
}

func TestMergeOccupancyMax(t *testing.T) {
	a := []Sample{{Name: "core.rob_occ", Kind: "occupancy", Count: 2, Sum: 10, Max: 9}}
	b := []Sample{{Name: "core.rob_occ", Kind: "occupancy", Count: 1, Sum: 2, Max: 31}}
	got := Merge(a, b)
	if len(got) != 1 || got[0].Max != 31 || got[0].Count != 3 {
		t.Fatalf("occupancy merge = %+v, want max 31 count 3", got)
	}
}

// TestMergeRealRegistries pins the end-to-end property the router
// depends on: merging N snapshots of registries built through the real
// counter/histogram paths equals one registry that observed the union
// of the traffic.
func TestMergeRealRegistries(t *testing.T) {
	build := func(observations []uint64, adds uint64) *Registry {
		r := NewRegistry()
		c := r.Counter("t.count", "events", "d")
		c.Add(adds)
		h := r.Histogram("t.hist", "us", "d")
		for _, v := range observations {
			h.Observe(v)
		}
		return r
	}
	a := build([]uint64{1, 5, 900}, 3)
	b := build([]uint64{2, 70000}, 4)
	union := build([]uint64{1, 5, 900, 2, 70000}, 7)

	got := Merge(a.Snapshot(), b.Snapshot())
	want := union.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged snapshots =\n%+v\nwant union registry\n%+v", got, want)
	}
}

// TestMergeDeterministic: permuting the input sets must not change the
// aggregate values, and the output is always name-sorted.
func TestMergeDeterministic(t *testing.T) {
	a := []Sample{{Name: "x", Kind: "counter", Value: 1}, {Name: "y", Kind: "counter", Value: 2}}
	b := []Sample{{Name: "y", Kind: "counter", Value: 3}, {Name: "x", Kind: "counter", Value: 4}}
	ab, ba := Merge(a, b), Merge(b, a)
	if len(ab) != 2 || ab[0].Name != "x" || ab[1].Name != "y" {
		t.Fatalf("output not name-sorted: %+v", ab)
	}
	for i := range ab {
		if ab[i].Value != ba[i].Value || ab[i].Name != ba[i].Name {
			t.Fatalf("merge order changed aggregates: %+v vs %+v", ab, ba)
		}
	}
}

// FuzzMetricsMerge drives Merge the way the shard router's /metrics
// does: a worker's /metrics.json body decoded as scrapeWorker decodes
// it, merged with a real registry's snapshot. Whatever the bytes, Merge
// must not panic, its output must be sorted by name with every input
// name exactly once, a counter's or gauge's value must be the sum of
// that name's inputs of its kind, and a histogram's or occupancy's
// count, sum and bucket counts must be conserved.
func FuzzMetricsMerge(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("server.cells_done", "events", "cells answered").Add(12)
	h := reg.Histogram("server.latency.cell_us", "us", "cell latency")
	for _, v := range []uint64{0, 3, 900, 70000, 1 << 62} {
		h.Observe(v)
	}
	reg.Occupancy("core.rob_occ", "entries", "rob occupancy").ObserveN(31, 4)
	own := reg.Snapshot()
	worker, err := json.Marshal(own)
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		string(worker),
		`[{"name":"server.queue_depth","kind":"gauge","unit":"events","value":5},{"name":"server.queue_depth","kind":"gauge","value":2},{"name":"server.cells_done","kind":"counter","value":18446744073709551615}]`,
		`[{"name":"server.cells_done","kind":"histogram","count":2,"buckets":[{"lo":8,"hi":16,"count":2}]}]`,
		`[{"name":"server.latency.cell_us","kind":"histogram","count":3,"sum":7,"buckets":[{"lo":64,"hi":0,"count":1},{"lo":0,"hi":1,"count":1},{"lo":0,"hi":1,"count":1}]}]`,
		`[{"name":"a","kind":"counter","value":1},{"name":"a","kind":"counter","value":2},{"name":"a","kind":"gauge","value":4},{"name":"","kind":"weird","value":3}]`,
		`[]`, `null`, `[{}]`, `{"name":"x"}`, `[{"name":"x","kind":"counter","value":-1}]`, ``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var samples []Sample
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&samples); err != nil {
			return
		}
		out := Merge(samples, own)

		// What each name must merge to: the kind of its first sample, and
		// the sums over that name's samples of that kind.
		type sums struct {
			kind              string
			value, count, sum uint64
			buckets           uint64
		}
		want := map[string]*sums{}
		for _, set := range [][]Sample{samples, own} {
			for _, s := range set {
				w, ok := want[s.Name]
				if !ok {
					w = &sums{kind: s.Kind}
					want[s.Name] = w
				}
				if s.Kind != w.kind {
					continue
				}
				w.value += s.Value
				w.count += s.Count
				w.sum += s.Sum
				for _, b := range s.Buckets {
					w.buckets += b.Count
				}
			}
		}
		if len(out) != len(want) {
			t.Fatalf("%d merged samples for %d distinct names", len(out), len(want))
		}
		for i, m := range out {
			if i > 0 && strings.Compare(out[i-1].Name, m.Name) >= 0 {
				t.Fatalf("output not sorted by unique name: %q then %q", out[i-1].Name, m.Name)
			}
			w, ok := want[m.Name]
			if !ok || m.Kind != w.kind {
				t.Fatalf("merged %q as %q, want an input name of kind %q", m.Name, m.Kind, w.kind)
			}
			switch m.Kind {
			case "counter", "gauge":
				if m.Value != w.value {
					t.Fatalf("%s %q = %d, inputs sum to %d", m.Kind, m.Name, m.Value, w.value)
				}
			case "histogram", "occupancy":
				var buckets uint64
				for _, b := range m.Buckets {
					buckets += b.Count
				}
				if m.Count != w.count || m.Sum != w.sum || buckets != w.buckets {
					t.Fatalf("%s %q: count/sum/buckets %d/%d/%d, inputs %d/%d/%d",
						m.Kind, m.Name, m.Count, m.Sum, buckets, w.count, w.sum, w.buckets)
				}
			}
		}
	})
}
