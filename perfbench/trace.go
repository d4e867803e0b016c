package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vca/internal/metrics"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call. Spans of one request share a track
// (the client that issued it) and nest through parent.
type span struct {
	id, parent int // parent 0 = a root span
	track      int
	name       string        // "<layer>.<call>"; the layer is the prefix
	start, end time.Duration // since the recorder's epoch
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.name, ".")
	return layer
}

// benchLayer names the benchmark's own spans (one per request). They
// frame a request but are not a layer of the program, so time they
// cover and no child covers is unattributed.
const benchLayer = "bench"

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every call on it is one nil check.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanHandle is an open span; end records it.
type spanHandle struct {
	r *recorder
	s span
}

func (r *recorder) begin(track, parent int, name string) spanHandle {
	if r == nil {
		return spanHandle{}
	}
	return spanHandle{r: r, s: span{
		id: int(r.next.Add(1)), parent: parent, track: track, name: name,
		start: time.Since(r.epoch),
	}}
}

func (h spanHandle) id() int { return h.s.id }

func (h spanHandle) end() {
	if h.r == nil {
		return
	}
	h.s.end = time.Since(h.r.epoch)
	h.r.mu.Lock()
	h.r.spans = append(h.r.spans, h.s)
	h.r.mu.Unlock()
}

// now is the recorder's clock, for window bounds.
func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

type interval struct{ lo, hi time.Duration }

// unionLength is the total length covered by ivs, each clipped to
// [lo, hi]; overlapping intervals count once.
func unionLength(ivs []interval, lo, hi time.Duration) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y interval) int { return cmp.Compare(x.lo, y.lo) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimes returns each span name's total self time: its spans'
// durations minus the part of each span's interval its child spans
// cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.name] += s.end - s.start - unionLength(children[s.id], s.start, s.end)
	}
	return out
}

// unattributedFrac is the share of tracks × [lo, hi] that no layer span
// covers: benchmark glue, client-side checks, and idle lanes.
func unattributedFrac(spans []span, tracks int, lo, hi time.Duration) float64 {
	if hi <= lo || tracks == 0 {
		return 0
	}
	byTrack := map[int][]interval{}
	for _, s := range spans {
		if s.layer() != benchLayer {
			byTrack[s.track] = append(byTrack[s.track], interval{s.start, s.end})
		}
	}
	var covered time.Duration
	for _, ivs := range byTrack {
		covered += unionLength(ivs, lo, hi)
	}
	return 1 - float64(covered)/float64(time.Duration(tracks)*(hi-lo))
}

// sumDur totals the durations of the spans named name.
func sumDur(spans []span, name string) (total time.Duration, n int) {
	for _, s := range spans {
		if s.name == name {
			total += s.end - s.start
			n++
		}
	}
	return total, n
}

// writeChromeTrace writes the spans as a Chrome trace-event file (one
// lane per client track), loadable at ui.perfetto.dev.
func writeChromeTrace(path, title string, spans []span) error {
	tr := metrics.NewTraceRecorder()
	tr.NameProcess(0, title)
	lanes := map[int]bool{}
	for _, s := range spans {
		if !lanes[s.track] {
			lanes[s.track] = true
			tr.NameThread(0, s.track, fmt.Sprintf("client %d", s.track))
		}
		tr.Complete(s.name, s.layer(), 0, s.track,
			uint64(s.start.Microseconds()), uint64((s.end - s.start).Microseconds()),
			metrics.Arg{Key: "id", Val: strconv.Itoa(s.id)},
			metrics.Arg{Key: "parent", Val: strconv.Itoa(s.parent)})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.WriteJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
