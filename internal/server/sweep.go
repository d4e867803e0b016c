package server

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"vca/internal/core"
	"vca/internal/experiments"
	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/simcache"
	"vca/internal/workload"
)

// SweepRequest is the POST /v1/sweeps body: a config-space sweep
// expressed as a cross product. Every combination of (arch, phys_regs,
// dl1_ports, benchmarks entry) becomes one cell; cells are independent
// simulation jobs and stream back individually as they finish.
//
// A benchmarks entry is a comma-separated list of workload names, one
// per SMT hardware thread ("crafty" is a single-thread cell,
// "crafty,mesa" a 2-thread multiprogrammed cell). Arch names are the
// public ones cmd/vcasim uses: baseline, conv-windowed, ideal-windowed,
// vca-flat, vca-windowed.
type SweepRequest struct {
	// Tenant is the fair-scheduling key; "" maps to "default". Cells of
	// different tenants in the same priority class dispatch round-robin.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the scheduling class: "interactive", "normal"
	// (default), or "batch". Classes are strict; see docs/SERVICE.md.
	Priority string `json:"priority,omitempty"`
	// Benchmarks, Archs, PhysRegs, DL1Ports span the sweep's cross
	// product. DL1Ports defaults to [2] (the paper's dual-port baseline).
	Benchmarks []string `json:"benchmarks"`
	Archs      []string `json:"archs"`
	PhysRegs   []int    `json:"phys_regs"`
	DL1Ports   []int    `json:"dl1_ports,omitempty"`
	// StopAfter caps detailed simulation per cell: the run ends once any
	// thread commits this many instructions (0 = run to completion).
	StopAfter uint64 `json:"stop_after,omitempty"`
	// TimeoutSec bounds the whole job's wall time from admission; cells
	// not finished when it expires fail with a timeout error. 0 takes
	// the server default (-jobtimeout).
	TimeoutSec int `json:"timeout_sec,omitempty"`
}

// Cell is one point of a sweep's cross product, fully describing one
// simulation job.
type Cell struct {
	Index      int    `json:"index"`
	Arch       string `json:"arch"`
	Benchmarks string `json:"benchmarks"` // comma-separated, one per thread
	PhysRegs   int    `json:"phys_regs"`
	DL1Ports   int    `json:"dl1_ports"`
	StopAfter  uint64 `json:"stop_after,omitempty"`
}

// CellResult is one line of the NDJSON results stream. Valid=false
// cells are the sweep's "No Baseline" regions: core refuses to build the
// architecture at that register-file size (core.ErrInfeasible, as
// experiments.Arch.Config reports it), which is a well-formed answer,
// not an error.
//
// Counters is the run's full flat event-counter map — the CounterPoint
// surface (PAPERS.md): exposing every counter through the job API lets
// downstream validation evaluate counter-algebra predicates without
// re-running anything. CacheKey is the job's content address in the
// shared result store; the store's entry file <cache>/<CacheKey>.json
// is its provenance record.
//
// Counters and Error stay the last two fields: the results stream
// splices them after the rest (lineEncoder).
type CellResult struct {
	Cell
	Valid     bool              `json:"valid"`
	Cycles    uint64            `json:"cycles,omitempty"`
	Committed uint64            `json:"committed,omitempty"`
	IPC       float64           `json:"ipc,omitempty"`
	Outputs   []string          `json:"outputs,omitempty"` // per-thread program output
	CacheKey  string            `json:"cache_key,omitempty"`
	Counters  map[string]uint64 `json:"counters,omitempty"`
	Error     string            `json:"error,omitempty"`

	// countersJSON is Counters already encoded, when the result store's
	// view answered the cell (simcache.Entry.CountersJSON); shared and
	// read-only.
	countersJSON []byte
}

// ArchNames returns the accepted arch names, in the machine table's
// order (experiments.ArchNames), for error messages.
func ArchNames() []string { return experiments.ArchNames() }

// ExpandCells validates a request and expands its cross product into
// cells in deterministic order (arch-major, then phys_regs, then
// dl1_ports, then benchmarks). It rejects unknown arch or benchmark
// names, empty axes, and sweeps larger than maxCells.
func ExpandCells(req *SweepRequest, maxCells int) ([]Cell, error) {
	if len(req.Benchmarks) == 0 || len(req.Archs) == 0 || len(req.PhysRegs) == 0 {
		return nil, fmt.Errorf("benchmarks, archs, and phys_regs must each be non-empty")
	}
	ports := req.DL1Ports
	if len(ports) == 0 {
		ports = []int{2}
	}
	for _, a := range req.Archs {
		if _, ok := experiments.ArchByName(a); !ok {
			return nil, fmt.Errorf("unknown arch %q (want one of %s)", a, strings.Join(ArchNames(), ", "))
		}
	}
	for _, b := range req.Benchmarks {
		for _, name := range strings.Split(b, ",") {
			if _, err := workload.ByName(strings.TrimSpace(name)); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range req.PhysRegs {
		if r <= 0 {
			return nil, fmt.Errorf("phys_regs must be positive, got %d", r)
		}
	}
	for _, p := range ports {
		if p <= 0 {
			return nil, fmt.Errorf("dl1_ports must be positive, got %d", p)
		}
	}
	// A 1 MiB body holds axes long enough for the plain product to
	// overflow int (and pass the limit check negative); it saturates.
	n := 1
	for _, k := range [...]int{len(req.Archs), len(req.PhysRegs), len(ports), len(req.Benchmarks)} {
		n = min(n, math.MaxInt/k) * k
	}
	if maxCells > 0 && n > maxCells {
		return nil, fmt.Errorf("sweep expands to %d cells, above the per-sweep limit %d", n, maxCells)
	}
	cells := make([]Cell, 0, n)
	for _, a := range req.Archs {
		for _, r := range req.PhysRegs {
			for _, p := range ports {
				for _, b := range req.Benchmarks {
					cells = append(cells, Cell{
						Index:      len(cells),
						Arch:       a,
						Benchmarks: b,
						PhysRegs:   r,
						DL1Ports:   p,
						StopAfter:  req.StopAfter,
					})
				}
			}
		}
	}
	return cells, nil
}

// progMemo caches built workload programs by (ABI, benchmark name).
// Workload compilation is deterministic, and a built Program is
// read-only to the simulator (core.New copies the image into machine
// memory; SMT runs already share one Program across threads), so every
// cell of a sweep — and every sweep of a daemon's lifetime — can share
// one build per (ABI, name).
var progMemo sync.Map // progID -> *program.Program

type progID struct {
	abi  minic.ABI
	name string
}

func buildProgram(abi minic.ABI, name string) (*program.Program, error) {
	id := progID{abi, name}
	if p, ok := progMemo.Load(id); ok {
		return p.(*program.Program), nil
	}
	b, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := b.Build(abi)
	if err != nil {
		return nil, err
	}
	shared, _ := progMemo.LoadOrStore(id, p)
	return shared.(*program.Program), nil
}

// build is a cell resolved to what the simulator runs.
type build struct {
	cfg      core.Config
	progs    []*program.Program
	windowed bool
}

// buildCell resolves a cell to its build. ok=false means the
// architecture cannot operate at this size — the caller reports an
// invalid (but successful) cell.
func buildCell(c Cell) (b *build, ok bool, err error) {
	arch, known := experiments.ArchByName(c.Arch)
	if !known {
		return nil, false, fmt.Errorf("unknown arch %q", c.Arch)
	}
	names := strings.Split(c.Benchmarks, ",")
	cfg, ok := arch.Config(len(names), c.PhysRegs, c.DL1Ports)
	if !ok {
		return nil, false, nil
	}
	b = &build{windowed: arch.Windowed()}
	for _, name := range names {
		p, err := buildProgram(arch.ABI(), strings.TrimSpace(name))
		if err != nil {
			return nil, false, err
		}
		b.progs = append(b.progs, p)
	}
	cfg.StopAfter = c.StopAfter
	cfg.MaxCycles = 1 << 34
	b.cfg = cfg
	return b, true, nil
}

// cellID is everything a cell's content address depends on: the cell
// without its Index. TestCellIDCoversCell fails if Cell gains a field
// cellID does not carry.
type cellID struct {
	Arch       string
	Benchmarks string
	PhysRegs   int
	DL1Ports   int
	StopAfter  uint64
}

// keyMemo remembers each distinct cell's content address ("" for a No
// Baseline cell, which has none), so a repeat
// cell costs a map lookup instead of a config build, a fingerprint and
// a hash. Memoizing is sound within a process: the config and the
// programs are pure functions of the cell (arch.Config, and progMemo's
// deterministic builds), and the key is a pure function of them. Build
// errors are not remembered. The memo holds at most keyMemoMax cells
// and is emptied wholesale when full; a forgotten cell is derived
// again.
var keyMemo struct {
	mu sync.RWMutex
	m  map[cellID]string
}

const keyMemoMax = 4096

// cellKey returns the cell's content address from keyMemo. When the
// memo does not hold the cell it builds it, and returns that build so
// a caller about to simulate need not build again (b is nil on a memo
// hit, and for a No Baseline cell).
func cellKey(c Cell) (key string, b *build, err error) {
	id := cellID{c.Arch, c.Benchmarks, c.PhysRegs, c.DL1Ports, c.StopAfter}
	keyMemo.mu.RLock()
	key, hit := keyMemo.m[id]
	keyMemo.mu.RUnlock()
	if hit {
		return key, nil, nil
	}
	b, ok, err := buildCell(c)
	if err != nil {
		return "", nil, err
	}
	if ok {
		key = simcache.Key(b.cfg, b.progs, b.windowed)
	}
	keyMemo.mu.Lock()
	if keyMemo.m == nil || len(keyMemo.m) >= keyMemoMax {
		keyMemo.m = make(map[cellID]string)
	}
	keyMemo.m[id] = key
	keyMemo.mu.Unlock()
	return key, b, nil
}

// CellKey returns the simcache content address the cell's simulation
// will be stored under — the key RunCell derives on the worker. The
// shard router computes it before dispatch and feeds it to the
// consistent-hash ring, so identical cells from any tenant land on the
// worker whose cache (and in-flight singleflight table) already covers
// them. ok=false is the "No Baseline" region: the cell never simulates,
// so it has no content address and needs no worker. Repeat cells are
// answered from a bounded in-process memo (keyMemo).
func CellKey(c Cell) (key string, ok bool, err error) {
	key, _, err = cellKey(c)
	return key, key != "", err
}

// RunCell executes one cell against the shared store with singleflight
// dedup and reduces the outcome to its wire form. Simulation failures
// land in CellResult.Error (the cell is answered, the job continues) —
// the same discipline simcache.Runner applies to failing jobs.
func RunCell(cache *simcache.Cache, c Cell) CellResult {
	out, b, done := replayCell(cache, c)
	if done {
		return out
	}
	return storeCell(cache, out, b)
}

// replayCell answers c when that needs no build, simulation or wait:
// from its memoized content address, then from the result store's
// verified view (simcache.Cache.Cached). done=false means the store
// must answer the cell: out then carries the cell and its CacheKey, and
// b the build that derived the key, if deriving it needed one.
func replayCell(cache *simcache.Cache, c Cell) (out CellResult, b *build, done bool) {
	out.Cell = c
	key, b, err := cellKey(c)
	if err != nil {
		out.Error = err.Error()
		return out, nil, true
	}
	if key == "" {
		return out, nil, true // Valid stays false: a "No Baseline" region
	}
	out.CacheKey = key
	if e, ok := cache.Cached(key); ok {
		out.answer(e)
		return out, nil, true
	}
	return out, b, false
}

// storeCell answers a cell replayCell could not, through
// RunMachineShared: it reads the entry file, or simulates once across
// concurrent callers. It builds the cell unless b already holds its
// build.
func storeCell(cache *simcache.Cache, out CellResult, b *build) CellResult {
	if b == nil {
		var err error
		if b, _, err = buildCell(out.Cell); err != nil {
			return CellResult{Cell: out.Cell, Error: err.Error()}
		}
	}
	e, _, err := cache.RunMachineShared(out.CacheKey, b.cfg, b.progs, b.windowed)
	if err != nil {
		return CellResult{Cell: out.Cell, Error: err.Error()}
	}
	out.answer(e)
	return out
}

// answer fills in the wire form of the cell's stored or simulated
// entry.
func (out *CellResult) answer(e *simcache.Entry) {
	res := e.Result
	out.Valid = true
	out.Cycles = res.Cycles
	out.IPC = res.IPC()
	out.Counters = e.Counters
	out.countersJSON = e.CountersJSON()
	out.Outputs = make([]string, 0, len(res.Threads))
	for _, t := range res.Threads {
		out.Committed += t.Committed
		out.Outputs = append(out.Outputs, t.Output)
	}
}

// RunCells is the direct, in-process path: the same cells the service
// would queue, dispatched through the standard simcache.Runner. The
// service's streamed results are byte-identical (per cell, as JSON) to
// this function's output over the same cache — the end-to-end identity
// the httptest suite and `make serve-smoke` assert (the latter through
// a real daemon and, in turn, a shard router in front of two workers).
func RunCells(cache *simcache.Cache, jobs int, cells []Cell) ([]CellResult, error) {
	out := make([]CellResult, len(cells))
	r := simcache.Runner{Jobs: jobs, KeepGoing: true}
	err := r.Run(len(cells), func(i int) error {
		out[i] = RunCell(cache, cells[i])
		return nil
	})
	return out, err
}
