package core

// This file implements the completion timing wheel: in-flight
// executions and issued ASTQ operations are bucketed by their doneAt
// cycle, so the writeback stage touches only the entries completing
// this cycle instead of scanning every in-flight one. The ring is sized
// so the full latency window fits (bucket index = doneAt mod size),
// which makes each bucket single-doneAt: two live entries can only
// share a bucket if their doneAt cycles differ by at least the ring
// size, and no in-flight latency is that long. Should a configuration
// exceed the initial sizing, the ring doubles and rehashes in place.
//
// Construction allocates only the bucket headers. A bucket gets its
// storage on its first insert, carved from a chunked spare arena, so a
// short run pays only for the buckets it lands on. Bucket slices are
// retained and reused ([:0] on drain), so the wheel allocates nothing
// in steady state. Within a bucket, entries stay in insertion (= issue)
// order — the writeback stage's processing order is part of the
// machine's deterministic, bit-reproducible behavior.

// execWheel holds issued uops awaiting completion.
type execWheel struct {
	buckets [][]*uop
	spare   []*uop // uncarved bucket storage
	mask    uint64
	count   int
}

// wheelSize rounds a latency span up to a power of two with headroom
// for operation latencies on top of the worst-case memory access.
func wheelSize(span int) int {
	span += 64
	n := 64
	for n < span {
		n <<= 1
	}
	return n
}

// wheelBucketCap is the capacity a bucket is carved with on its first
// insert, so a machine reaches allocation-free steady state without
// warming each bucket through append growth. A machine-width issue burst
// fits; rare hot spots (many completions landing on one cycle) grow that
// bucket normally.
const wheelBucketCap = 8

// wheelChunkBuckets is how many buckets' storage the spare arena
// allocates at a time.
const wheelChunkBuckets = 16

// carve returns wheelBucketCap empty slots for a never-used bucket,
// refilling the spare arena a chunk at a time.
func carve[T any](spare *[]T) []T {
	if len(*spare) == 0 {
		*spare = make([]T, wheelChunkBuckets*wheelBucketCap)
	}
	b := (*spare)[:0:wheelBucketCap]
	*spare = (*spare)[wheelBucketCap:]
	return b
}

func (w *execWheel) init(span int) {
	n := wheelSize(span)
	w.buckets = make([][]*uop, n)
	w.mask = uint64(n - 1)
}

// insert schedules u for completion at u.doneAt (> now).
func (w *execWheel) insert(u *uop, now uint64) {
	for u.doneAt-now >= uint64(len(w.buckets)) {
		w.grow()
	}
	b := u.doneAt & w.mask
	if cap(w.buckets[b]) == 0 {
		w.buckets[b] = carve(&w.spare)
	}
	w.buckets[b] = append(w.buckets[b], u)
	u.inWheel = true
	w.count++
}

// grow doubles the ring, rehashing every entry. Each old bucket holds a
// single doneAt, so per-bucket insertion order survives the move.
func (w *execWheel) grow() {
	old := w.buckets
	w.buckets = make([][]*uop, 2*len(old))
	w.mask = uint64(len(w.buckets) - 1)
	for _, b := range old {
		for _, u := range b {
			nb := u.doneAt & w.mask
			w.buckets[nb] = append(w.buckets[nb], u)
		}
	}
}

// remove unlinks a squashed in-flight uop from its bucket.
func (w *execWheel) remove(u *uop) {
	b := w.buckets[u.doneAt&w.mask]
	for i, v := range b {
		if v == u {
			w.buckets[u.doneAt&w.mask] = append(b[:i], b[i+1:]...)
			u.inWheel = false
			w.count--
			return
		}
	}
}

// take drains the bucket for cycle now, returning its entries. The
// stored slice is reset for reuse; the returned view stays valid until
// the next insert for an equivalent cycle (a full ring lap later).
func (w *execWheel) take(now uint64) []*uop {
	b := w.buckets[now&w.mask]
	w.buckets[now&w.mask] = b[:0]
	w.count -= len(b)
	return b
}

// nextEvent returns the earliest completion cycle in [from, bound), if
// any. Every live entry's doneAt lies within one ring lap of from, so
// the forward scan is bounded by the ring size.
func (w *execWheel) nextEvent(from, bound uint64) (uint64, bool) {
	if w.count == 0 {
		return 0, false
	}
	limit := from + uint64(len(w.buckets))
	if bound < limit {
		limit = bound
	}
	for d := from; d < limit; d++ {
		if len(w.buckets[d&w.mask]) > 0 {
			return d, true
		}
	}
	return 0, false
}

// astqWheel is the same structure for issued ASTQ spill/fill
// operations. Entries are values: an issued ASTQ operation is never
// squashed — a fill whose consumers died delivers into a recycled
// register only if the mapping is still live (rename.VCA.FillLive).
type astqWheel struct {
	buckets [][]astqEntry
	spare   []astqEntry
	mask    uint64
	count   int
}

func (w *astqWheel) init(span int) {
	n := wheelSize(span)
	w.buckets = make([][]astqEntry, n)
	w.mask = uint64(n - 1)
}

func (w *astqWheel) insert(e astqEntry, now uint64) {
	for e.doneAt-now >= uint64(len(w.buckets)) {
		w.grow()
	}
	b := e.doneAt & w.mask
	if cap(w.buckets[b]) == 0 {
		w.buckets[b] = carve(&w.spare)
	}
	w.buckets[b] = append(w.buckets[b], e)
	w.count++
}

func (w *astqWheel) grow() {
	old := w.buckets
	w.buckets = make([][]astqEntry, 2*len(old))
	w.mask = uint64(len(w.buckets) - 1)
	for _, b := range old {
		for _, e := range b {
			nb := e.doneAt & w.mask
			w.buckets[nb] = append(w.buckets[nb], e)
		}
	}
}

func (w *astqWheel) take(now uint64) []astqEntry {
	b := w.buckets[now&w.mask]
	w.buckets[now&w.mask] = b[:0]
	w.count -= len(b)
	return b
}

func (w *astqWheel) nextEvent(from, bound uint64) (uint64, bool) {
	if w.count == 0 {
		return 0, false
	}
	limit := from + uint64(len(w.buckets))
	if bound < limit {
		limit = bound
	}
	for d := from; d < limit; d++ {
		if len(w.buckets[d&w.mask]) > 0 {
			return d, true
		}
	}
	return 0, false
}
