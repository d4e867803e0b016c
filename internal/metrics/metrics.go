// Package metrics is the simulator's hardware-event-counter surface: a
// registry of named Counters, power-of-two-bucketed Histograms, and
// queue Occupancy trackers that components register once at construction
// and then bump through plain struct fields on the hot path — no map
// lookup, no interface call, no allocation per event.
//
// The design follows the instrumentation discipline of counter-driven
// microarchitecture validation (CounterPoint; see PAPERS.md): every rate
// the paper's evaluation depends on — rename stalls, spill/fill traffic,
// window-trap overhead, per-cause cache accesses — is exposed as a named
// event with a unit, so an assumption about the machine can be refuted
// with a measurement rather than re-argued. Naming, units, and the
// stall-cause taxonomy are documented in docs/OBSERVABILITY.md.
//
// Hot-path contract: a Counter is a uint64 (bump with c.Inc() or a plain
// ++ on the struct field); Histogram.Observe is a bits.Len64 plus three
// adds; Occupancy.Observe adds a max track on top. The Registry is
// touched only at construction and at export time, never per cycle.
// Exporters (JSON, CSV — export.go) and the Chrome trace-event recorder
// (chrometrace.go) read from a point-in-time Snapshot.
package metrics

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Counter is a monotonically increasing event count. Components hold it
// by value inside their own stats structs (or obtain a pointer from
// Registry.Counter) and bump it directly; the registry keeps a pointer
// for export. Existing plain-uint64 stat fields register via a pointer
// conversion: (*metrics.Counter)(&stats.Field).
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { *c++ }

// Add adds n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return uint64(*c) }

// NumBuckets is the fixed bucket count of every Histogram. Bucket 0
// counts zero values; bucket i (1 ≤ i < NumBuckets-1) counts values v
// with 2^(i-1) ≤ v < 2^i; the last bucket absorbs everything larger.
const NumBuckets = 32

// Histogram is a fixed power-of-two-bucketed distribution. Observe is
// allocation-free and branch-light so it can run per cycle.
type Histogram struct {
	Count   Counter
	Sum     Counter
	Buckets [NumBuckets]Counter
}

// BucketOf returns the bucket index a value lands in.
func BucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketBounds returns the inclusive lower and exclusive upper value
// bound of bucket i (the last bucket's upper bound is reported as 0,
// meaning unbounded).
func BucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 1
	}
	if i >= NumBuckets-1 {
		return 1 << (NumBuckets - 2), 0
	}
	return 1 << (i - 1), 1 << i
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.Count++
	h.Sum += Counter(v)
	h.Buckets[BucketOf(v)]++
}

// ObserveN records the same value n times, equivalent to (but O(1)
// instead of O(n)) calling Observe(v) n times. Event-driven simulators
// use it to bulk-account a run of identical per-cycle samples when the
// sampled state is provably frozen across skipped cycles.
func (h *Histogram) ObserveN(v, n uint64) {
	h.Count += Counter(n)
	h.Sum += Counter(v * n)
	h.Buckets[BucketOf(v)] += Counter(n)
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Occupancy tracks a queue's occupancy over time: sampled once per
// cycle, it accumulates the full distribution plus the high-water mark,
// giving both average residency (Sum/Count) and saturation evidence
// (Max, top buckets).
type Occupancy struct {
	Hist Histogram
	Max  Counter
}

// Observe records one occupancy sample.
func (o *Occupancy) Observe(n uint64) {
	o.Hist.Observe(n)
	if Counter(n) > o.Max {
		o.Max = Counter(n)
	}
}

// ObserveN records the same occupancy sample n times (see
// Histogram.ObserveN).
func (o *Occupancy) ObserveN(v, n uint64) {
	o.Hist.ObserveN(v, n)
	if Counter(v) > o.Max {
		o.Max = Counter(v)
	}
}

// Mean returns the average occupancy.
func (o *Occupancy) Mean() float64 { return o.Hist.Mean() }

// Kind discriminates the registered metric types.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindHistogram
	KindOccupancy
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	case KindOccupancy:
		return "occupancy"
	}
	return "?"
}

type entry struct {
	name string
	unit string
	desc string
	kind Kind
	c    *Counter
	h    *Histogram
	o    *Occupancy
}

// Registry holds the named metrics of one machine instance. It is not
// safe for concurrent use; a simulator is single-threaded and each
// Machine owns its own Registry.
type Registry struct {
	entries []entry
	byName  map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

func (r *Registry) add(e entry) {
	if _, dup := r.byName[e.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", e.name))
	}
	r.byName[e.name] = struct{}{}
	r.entries = append(r.entries, e)
}

// Counter allocates and registers a fresh counter.
func (r *Registry) Counter(name, unit, desc string) *Counter {
	c := new(Counter)
	r.RegisterCounter(name, unit, desc, c)
	return c
}

// RegisterCounter adopts an existing counter field. This is the
// no-indirection path: the component keeps bumping its own struct field
// and the registry only remembers where it lives.
func (r *Registry) RegisterCounter(name, unit, desc string, c *Counter) {
	r.add(entry{name: name, unit: unit, desc: desc, kind: KindCounter, c: c})
}

// Histogram allocates and registers a fresh histogram.
func (r *Registry) Histogram(name, unit, desc string) *Histogram {
	h := new(Histogram)
	r.RegisterHistogram(name, unit, desc, h)
	return h
}

// RegisterHistogram adopts an existing histogram field.
func (r *Registry) RegisterHistogram(name, unit, desc string, h *Histogram) {
	r.add(entry{name: name, unit: unit, desc: desc, kind: KindHistogram, h: h})
}

// Occupancy allocates and registers a fresh occupancy tracker.
func (r *Registry) Occupancy(name, unit, desc string) *Occupancy {
	o := new(Occupancy)
	r.RegisterOccupancy(name, unit, desc, o)
	return o
}

// RegisterOccupancy adopts an existing occupancy tracker.
func (r *Registry) RegisterOccupancy(name, unit, desc string, o *Occupancy) {
	r.add(entry{name: name, unit: unit, desc: desc, kind: KindOccupancy, o: o})
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.entries) }

// Bucket is one non-empty histogram bucket in a Sample: values v with
// Lo ≤ v < Hi (Hi == 0 means unbounded above).
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi,omitempty"`
	Count uint64 `json:"count"`
}

// Sample is the exported point-in-time value of one metric. Counter
// samples carry Value; histogram and occupancy samples carry
// Count/Sum/Mean (and Max for occupancy) plus the non-empty buckets.
type Sample struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Unit    string   `json:"unit"`
	Desc    string   `json:"desc,omitempty"`
	Value   uint64   `json:"value,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Max     uint64   `json:"max,omitempty"`
	Mean    float64  `json:"mean,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

func histSample(s *Sample, h *Histogram) {
	s.Count = h.Count.Value()
	s.Sum = h.Sum.Value()
	s.Mean = h.Mean()
	for i := range h.Buckets {
		if h.Buckets[i] == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		s.Buckets = append(s.Buckets, Bucket{Lo: lo, Hi: hi, Count: h.Buckets[i].Value()})
	}
}

// Snapshot returns every metric's current value, sorted by name, so two
// identical runs export byte-identical dumps.
func (r *Registry) Snapshot() []Sample {
	out := make([]Sample, 0, len(r.entries))
	for i := range r.entries {
		e := &r.entries[i]
		s := Sample{Name: e.name, Kind: e.kind.String(), Unit: e.unit, Desc: e.desc}
		switch e.kind {
		case KindCounter:
			s.Value = e.c.Value()
		case KindHistogram:
			histSample(&s, e.h)
		case KindOccupancy:
			histSample(&s, &e.o.Hist)
			s.Max = e.o.Max.Value()
		}
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b Sample) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Perturb shifts a registered counter by delta, clamping at zero, and
// reports whether the counter exists. It is a fault-injection hook for
// the counter-oracle teeth tests (the registry analogue of the
// invariant checker's InjectLeak): a perturbed counter flows through
// every exporter — Snapshot, CounterMap, promexport — exactly like a
// real miscount, so a test can prove the counterpoint predicates
// actually fire on a violated relation. Never call it on a registry
// whose run you intend to keep.
func (r *Registry) Perturb(name string, delta int64) bool {
	for i := range r.entries {
		e := &r.entries[i]
		if e.name != name || e.kind != KindCounter {
			continue
		}
		switch {
		case delta >= 0:
			*e.c += Counter(delta)
		case uint64(-delta) >= e.c.Value():
			*e.c = 0
		default:
			*e.c -= Counter(-delta)
		}
		return true
	}
	return false
}

// CounterMap returns just the plain counters as a name→value map — the
// compact form the result cache stores with each entry, perfbench reads
// per run, and the counterpoint predicates evaluate.
func (r *Registry) CounterMap() map[string]uint64 {
	out := make(map[string]uint64, len(r.entries))
	for i := range r.entries {
		if e := &r.entries[i]; e.kind == KindCounter {
			out[e.name] = e.c.Value()
		}
	}
	return out
}
