package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"vca/internal/simcache"
)

// FuzzStreamLine: for any CellResult, with or without its counter map
// already encoded, the results stream's line is byte-identical to
// json.NewEncoder(w).Encode of the same value, and fails exactly when
// Encode fails (a NaN or infinite IPC). One encoder renders every
// input, so state left over from an earlier line would show up too.
func FuzzStreamLine(f *testing.F) {
	type seed struct {
		arch, bench, out, errMsg, counter, cacheKey string
		ipc                                         float64
		counters                                    int // <0 nil map, else counters%8 entries
		stored                                      bool
	}
	for _, s := range []seed{
		{"baseline", "crafty", "ok\n", "", "core.cycles", "ab12", 1.25, 3, true},
		{"baseline", "crafty", "ok\n", "", "core.cycles", "ab12", 1.25, 3, false},
		{"<vca>&", "mesa,twolf", "<b>&amp;</b>", "x > y & z < w", "a<b>&c", "", 0.5, 2, true},
		{"ideal windowed", "gcc_expr", "line sep ", "err ", "k ", "k", 3, 1, true},
		{"\xff\xfe", "\xc3\x28", "bad\xffutf8", "bad\xc3\x28error", "\xff", "\x00", 2, 4, true},
		{"baseline", "crafty", "", "", "core.cycles", "", 1, -1, false},
		{"baseline", "crafty", "", "", "core.cycles", "", 1, 0, true},
		{"baseline", "crafty", "", "", "core.cycles", "", 1, 0, false},
		{"vca-flat", "crafty", "tiny", "", "x", "k", math.SmallestNonzeroFloat64, 1, true},
		{"vca-flat", "crafty", "huge", "", "x", "k", math.MaxFloat64, 1, true},
		{"vca-flat", "crafty", "", "", "x", "k", 1e21, 1, false},
		{"vca-flat", "crafty", "", "", "x", "k", 1e-7, 1, false},
		{"vca-flat", "crafty", "", "simulation failed", "x", "", math.NaN(), 1, true},
		{"vca-flat", "crafty", "", "", "x", "", math.Inf(-1), -1, false},
	} {
		f.Add(7, s.arch, s.bench, 192, 2, uint64(600), true, uint64(1234), uint64(1000), s.ipc,
			s.out, s.cacheKey, s.counter, uint64(42), s.counters, s.stored, s.errMsg)
	}
	le := newLineEncoder()
	f.Fuzz(func(t *testing.T, index int, arch, bench string, regs, ports int, stop uint64, valid bool,
		cycles, committed uint64, ipc float64, out, cacheKey, counter string, value uint64,
		counters int, stored bool, errMsg string) {
		r := CellResult{
			Cell:      Cell{Index: index, Arch: arch, Benchmarks: bench, PhysRegs: regs, DL1Ports: ports, StopAfter: stop},
			Valid:     valid,
			Cycles:    cycles,
			Committed: committed,
			IPC:       ipc,
			CacheKey:  cacheKey,
			Error:     errMsg,
		}
		if out != "" {
			r.Outputs = []string{out, "", out + out}
		}
		if counters >= 0 {
			r.Counters = map[string]uint64{}
			for i := 0; i < counters%8; i++ {
				r.Counters[counter+string(rune('a'+i))] = value + uint64(i)
			}
		}
		if stored && r.Counters != nil {
			b, err := json.Marshal(r.Counters)
			if err != nil {
				t.Fatal(err)
			}
			r.countersJSON = b
		}
		var want bytes.Buffer
		werr := json.NewEncoder(&want).Encode(&r)
		got, gerr := le.line(&r)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("Encode error %v, stream line error %v", werr, gerr)
		}
		if werr == nil && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("stream line differs from Encode\nline:   %q\nencode: %q", got, want.Bytes())
		}
	})
}

// holdExecutor answers cell 0 at once and holds cell 1 until release
// closes (or its job ends).
type holdExecutor struct {
	local
	results []CellResult
	release chan struct{}
}

func (h *holdExecutor) Run(ctx context.Context, _ *Job, c Cell) CellResult {
	if c.Index == 1 {
		select {
		case <-h.release:
		case <-ctx.Done():
		}
	}
	return h.results[c.Index]
}

// TestStreamFlushesBeforeWaiting: the results stream may hold written
// lines back only while more results are ready. With result 1 held
// back, the client must read line 0 before result 1 is appended; a
// stream that flushed only at the end of the job would never deliver
// it, and the read would time out.
func TestStreamFlushesBeforeWaiting(t *testing.T) {
	req := SweepRequest{Benchmarks: []string{"crafty"}, Archs: []string{"baseline", "vca-flat"}, PhysRegs: []int{256}}
	cells, err := ExpandCells(&req, 0)
	if err != nil {
		t.Fatal(err)
	}
	hold := &holdExecutor{
		results: []CellResult{
			{Cell: cells[0], Valid: true, Cycles: 10, Counters: map[string]uint64{"a": 1}, countersJSON: []byte(`{"a":1}`)},
			{Cell: cells[1], Error: "held back"},
		},
		release: make(chan struct{}),
	}
	// One worker: cell 0 is answered before cell 1 is popped and held.
	s := NewWithExecutor(Options{Workers: 1}, "server", hold)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		abandon, cancel := context.WithCancel(context.Background())
		cancel() // a cell still held on failure is abandoned
		s.Drain(abandon)
	})

	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/sweeps/"+job.ID+"/results", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for i, r := range hold.results {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading line %d: %v", i, err)
		}
		if want := ndjsonLine(t, r); !bytes.Equal(line, want) {
			t.Fatalf("line %d = %q, want %q", i, line, want)
		}
		if i == 0 {
			if job.Ready(1) {
				t.Fatal("result 1 landed before the test released it")
			}
			close(hold.release)
		}
	}
	if rest, err := br.ReadBytes('\n'); len(rest) != 0 || err == nil {
		t.Fatalf("stream continued after the last result: %q, %v", rest, err)
	}
}

// BenchmarkStreamLine measures rendering one results-stream line for a
// cached cell. view carries the counter map already encoded, as the
// result store's view hands it out; cold has only the map, as a
// simulated or router-relayed cell does, and encodes it on the spot.
func BenchmarkStreamLine(b *testing.B) {
	cache, err := simcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	c := Cell{Arch: "vca-windowed", Benchmarks: "gcc_expr", PhysRegs: 256, DL1Ports: 2, StopAfter: 2000}
	if r := RunCell(cache, c); r.Error != "" {
		b.Fatal(r.Error)
	}
	view := RunCell(cache, c)
	if view.countersJSON == nil {
		b.Fatal("a replayed cell carries no encoded counters")
	}
	cold := view
	cold.countersJSON = nil
	for _, bc := range []struct {
		name string
		r    CellResult
	}{{"cold", cold}, {"view", view}} {
		b.Run(bc.name, func(b *testing.B) {
			le := newLineEncoder()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				line, err := le.line(&bc.r)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(line)))
			}
		})
	}
}

// FuzzWorkerResult drives DecodeResult, the router's reader of a
// worker's one-line results stream, over any bytes and any routed key.
// It must never panic and never accept a Valid result stored under
// another key; a result it accepts must re-encode through the results
// stream's lineEncoder to a line that decodes back to the same result.
func FuzzWorkerResult(f *testing.F) {
	cache, err := simcache.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	cell := Cell{Index: 3, Arch: "vca-windowed", Benchmarks: "crafty,mesa", PhysRegs: 192, DL1Ports: 2, StopAfter: 1000}
	real := RunCell(cache, cell)
	if !real.Valid {
		f.Fatalf("seed cell: %+v", real)
	}
	line := ndjsonLine(f, real)
	for _, s := range []struct{ line, key string }{
		{string(line), real.CacheKey},
		{string(line), "another simulator's key"},
		{string(line[:len(line)/2]), real.CacheKey},
		{`{"index":4,"arch":"conv-windowed","benchmarks":"crafty","phys_regs":64,"dl1_ports":2,"valid":false}`, ""},
		{`{"index":0,"arch":"baseline","benchmarks":"doom","phys_regs":256,"dl1_ports":2,"valid":false,"error":"unknown benchmark"}`, "k"},
		{`{"valid":true,"cache_key":"k","counters":{},"outputs":[],"ipc":-0}`, "k"},
		{`{"valid":true,"cache_key":"k","outputs":["\ud800 <&>","\xff"],"counters":{"a":1,"a":2}}{"valid":true}`, "k"},
		{`{"valid":true}`, ""},
		{`{"ipc":1e400}`, ""},
		{`null`, ""}, {`[]`, ""}, {``, ""}, {`{`, ""},
	} {
		f.Add([]byte(s.line), s.key)
	}
	// normal forms an empty map or slice as the absent one, which is
	// what encoding/json's omitempty makes of both.
	normal := func(r CellResult) CellResult {
		if len(r.Outputs) == 0 {
			r.Outputs = nil
		}
		if len(r.Counters) == 0 {
			r.Counters = nil
		}
		return r
	}
	le := newLineEncoder()
	f.Fuzz(func(t *testing.T, line []byte, key string) {
		res, err := DecodeResult(bytes.NewReader(line), key)
		if err != nil {
			return
		}
		if res.Valid && res.CacheKey != key {
			t.Fatalf("accepted a valid result under key %q routed by %q", res.CacheKey, key)
		}
		enc, err := le.line(&res)
		if err != nil {
			t.Fatalf("accepted result %+v does not encode: %v", res, err)
		}
		back, err := DecodeResult(bytes.NewReader(enc), key)
		if err != nil {
			t.Fatalf("re-encoded line %s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(normal(back), normal(res)) {
			t.Fatalf("round trip changed the result\naccepted: %+v\nback:     %+v", res, back)
		}
	})
}
