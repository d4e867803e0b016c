// Package branch implements the front-end control-flow predictors of the
// simulated machine: a hybrid conditional-branch predictor (bimodal +
// gshare with a chooser, the "Hybrid" entry in Table 1), a branch target
// buffer for indirect jumps and calls, and a per-thread return address
// stack. All predictors are shared across SMT threads except the global
// history register and the RAS, which are per-thread.
package branch

// Config sizes the predictor structures.
type Config struct {
	TableBits int // log2 entries in bimodal/gshare/chooser tables
	HistBits  int // global history length (≤ TableBits)
	BTBBits   int // log2 entries in the branch target buffer
	RASDepth  int // return address stack entries per thread
	Threads   int
}

// DefaultConfig returns a predictor comparable to the Alpha-style hybrid
// predictor the paper's baseline uses.
func DefaultConfig(threads int) Config {
	return Config{TableBits: 12, HistBits: 12, BTBBits: 10, RASDepth: 16, Threads: threads}
}

type threadState struct {
	hist  uint32
	ras   []uint64
	rasSP int // next push slot; grows upward, wraps
}

// Predictor is the complete front-end prediction machinery.
type Predictor struct {
	cfg     Config
	bimodal []uint8 // 2-bit counters
	gshare  []uint8
	chooser []uint8 // 2-bit: ≥2 favors gshare
	btbTag  []uint64
	btbTgt  []uint64
	threads []threadState

	// Statistics.
	CondLookups uint64
	CondMispred uint64
	BTBLookups  uint64
	BTBMisses   uint64
	RASPredicts uint64
}

// New builds a predictor; counters start weakly not-taken / no preference.
func New(cfg Config) *Predictor {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]uint8, 1<<cfg.TableBits),
		gshare:  make([]uint8, 1<<cfg.TableBits),
		chooser: make([]uint8, 1<<cfg.TableBits),
		btbTag:  make([]uint64, 1<<cfg.BTBBits),
		btbTgt:  make([]uint64, 1<<cfg.BTBBits),
		threads: make([]threadState, cfg.Threads),
	}
	for i := range p.chooser {
		p.bimodal[i] = 1
		p.gshare[i] = 1
		p.chooser[i] = 1
	}
	for t := range p.threads {
		p.threads[t].ras = make([]uint64, cfg.RASDepth)
	}
	return p
}

// Checkpoint captures the speculative front-end state consumed by one
// control instruction, sufficient both to train the right table entries at
// resolution and to restore the front end after a squash.
type Checkpoint struct {
	Hist   uint32
	RasSP  int
	RasTop uint64
}

func (p *Predictor) tableIdx(pc uint64) int {
	return int(pc>>2) & (1<<p.cfg.TableBits - 1)
}

func (p *Predictor) gshareIdx(pc uint64, hist uint32) int {
	return (int(pc>>2) ^ int(hist)) & (1<<p.cfg.TableBits - 1)
}

// snapshot captures thread t's speculative state.
func (p *Predictor) snapshot(t int) Checkpoint {
	ts := &p.threads[t]
	top := ts.ras[(ts.rasSP-1+p.cfg.RASDepth)%p.cfg.RASDepth]
	return Checkpoint{Hist: ts.hist, RasSP: ts.rasSP, RasTop: top}
}

// Recover restores thread t's speculative history and RAS from a
// checkpoint taken at the mispredicted instruction.
func (p *Predictor) Recover(t int, ck Checkpoint) {
	ts := &p.threads[t]
	ts.hist = ck.Hist
	ts.rasSP = ck.RasSP
	ts.ras[(ts.rasSP-1+p.cfg.RASDepth)%p.cfg.RASDepth] = ck.RasTop
}

// PredictCond predicts a conditional branch at pc for thread t, advances
// the speculative history, and returns the checkpoint to attach to the
// instruction.
func (p *Predictor) PredictCond(t int, pc uint64) (taken bool, ck Checkpoint) {
	ck = p.snapshot(t)
	ts := &p.threads[t]
	p.CondLookups++
	bi := p.bimodal[p.tableIdx(pc)] >= 2
	gs := p.gshare[p.gshareIdx(pc, ts.hist)] >= 2
	if p.chooser[p.tableIdx(pc)] >= 2 {
		taken = gs
	} else {
		taken = bi
	}
	ts.hist = ts.hist<<1 | b2u(taken)
	if p.cfg.HistBits < 32 {
		ts.hist &= 1<<p.cfg.HistBits - 1
	}
	return taken, ck
}

// ResolveCond trains the tables with the actual outcome, using the history
// that was live at prediction time (from the checkpoint). mispredicted
// reports whether the prediction disagreed; callers use it for statistics
// and recovery. Call this at branch resolution.
func (p *Predictor) ResolveCond(pc uint64, ck Checkpoint, taken, mispredicted bool) {
	if mispredicted {
		p.CondMispred++
	}
	bIdx := p.tableIdx(pc)
	gIdx := p.gshareIdx(pc, ck.Hist)
	biWas := p.bimodal[bIdx] >= 2
	gsWas := p.gshare[gIdx] >= 2
	p.bimodal[bIdx] = bump(p.bimodal[bIdx], taken)
	p.gshare[gIdx] = bump(p.gshare[gIdx], taken)
	if biWas != gsWas {
		p.chooser[bIdx] = bump(p.chooser[bIdx], gsWas == taken)
	}
}

// RecoverCond repairs the front end after a mispredicted conditional
// branch: history is restored to the checkpoint with the actual outcome
// shifted in (the branch itself is correct once re-steered; everything
// younger is squashed).
func (p *Predictor) RecoverCond(t int, ck Checkpoint, actual bool) {
	p.Recover(t, ck)
	ts := &p.threads[t]
	ts.hist = ck.Hist<<1 | b2u(actual)
	if p.cfg.HistBits < 32 {
		ts.hist &= 1<<p.cfg.HistBits - 1
	}
}

// PopRAS discards the top RAS entry; used when re-applying a return's
// front-end effect after recovery.
func (p *Predictor) PopRAS(t int) {
	ts := &p.threads[t]
	ts.rasSP = (ts.rasSP - 1 + p.cfg.RASDepth) % p.cfg.RASDepth
}

// PredictIndirect predicts the target of an indirect jump or call via the
// BTB. ok is false on a BTB miss, in which case fetch must stall or guess
// fall-through (the core treats it as predict-next and repairs at resolve).
func (p *Predictor) PredictIndirect(t int, pc uint64) (target uint64, ok bool, ck Checkpoint) {
	ck = p.snapshot(t)
	p.BTBLookups++
	idx := int(pc>>2) & (1<<p.cfg.BTBBits - 1)
	if p.btbTag[idx] == pc {
		return p.btbTgt[idx], true, ck
	}
	p.BTBMisses++
	return 0, false, ck
}

// UpdateBTB records the resolved target of an indirect control transfer.
func (p *Predictor) UpdateBTB(pc, target uint64) {
	idx := int(pc>>2) & (1<<p.cfg.BTBBits - 1)
	p.btbTag[idx] = pc
	p.btbTgt[idx] = target
}

// PushRAS records a call's return address at fetch (speculative).
func (p *Predictor) PushRAS(t int, retPC uint64) {
	ts := &p.threads[t]
	ts.ras[ts.rasSP] = retPC
	ts.rasSP = (ts.rasSP + 1) % p.cfg.RASDepth
}

// PredictReturn pops the RAS at fetch and returns the predicted return
// target plus the checkpoint (taken before the pop).
func (p *Predictor) PredictReturn(t int, pc uint64) (target uint64, ck Checkpoint) {
	ck = p.snapshot(t)
	ts := &p.threads[t]
	p.RASPredicts++
	ts.rasSP = (ts.rasSP - 1 + p.cfg.RASDepth) % p.cfg.RASDepth
	return ts.ras[ts.rasSP], ck
}

// CheckpointFor captures the current front-end state for control
// instructions that make no prediction themselves (direct jumps/calls) but
// still need recoverable state attached.
func (p *Predictor) CheckpointFor(t int) Checkpoint { return p.snapshot(t) }

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func bump(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}
