// Package bpred implements the branch prediction machinery of the simulated
// core: a tournament direction predictor (local two-bit counters and a
// gshare-style global predictor arbitrated by a chooser), a branch target
// buffer for indirect jumps, and a return address stack.
//
// Prediction happens at fetch along the speculative path, so all predictor
// speculation state (global history, RAS) is checkpointable: the core takes
// a Snapshot at every predicted branch and Restores it when the branch turns
// out to be mispredicted. Counter tables and the BTB are trained at
// retirement only, so wrong-path instructions never pollute them.
package bpred

import "invisispec/internal/isa"

// Config sizes the predictor structures. The defaults follow Table IV of
// the paper: tournament predictor, 4096 BTB entries, 16 RAS entries.
type Config struct {
	LocalBits  uint // log2 of local predictor entries
	GlobalBits uint // log2 of global (gshare) predictor entries
	ChoiceBits uint // log2 of chooser entries
	BTBEntries int
	RASEntries int
}

// DefaultConfig mirrors the simulated architecture of the paper.
func DefaultConfig() Config {
	return Config{
		LocalBits:  12,
		GlobalBits: 12,
		ChoiceBits: 12,
		BTBEntries: 4096,
		RASEntries: 16,
	}
}

// Predictor is the per-core branch prediction unit.
type Predictor struct {
	cfg    Config
	local  []uint8 // 2-bit saturating counters indexed by PC
	global []uint8 // 2-bit counters indexed by PC ^ history
	choice []uint8 // 2-bit chooser: >=2 selects global
	// btb is allocated by the first TrainTarget: many programs have no
	// indirect jump, and its entries are most of a predictor's memory.
	btb    []btbEntry
	ghr    uint64 // speculative global history (youngest outcome in bit 0)
	ras    []int
	rasTop int // index of next push slot
	// rasShared marks ras as also held by a snapshot: snapshots share the
	// stack copy-on-write, so the next PushRAS clones it first.
	rasShared bool

	// Stats.
	CondPredicts   uint64
	CondMispredics uint64
	BTBLookups     uint64
	BTBMisses      uint64
}

type btbEntry struct {
	pc     int
	target int
	valid  bool
}

// New builds a predictor with all counters weakly not-taken.
func New(cfg Config) *Predictor {
	if cfg.BTBEntries <= 0 || cfg.RASEntries <= 0 {
		panic("bpred: BTB and RAS sizes must be positive")
	}
	return &Predictor{
		cfg:    cfg,
		local:  make([]uint8, 1<<cfg.LocalBits),
		global: make([]uint8, 1<<cfg.GlobalBits),
		choice: make([]uint8, 1<<cfg.ChoiceBits),
		ras:    make([]int, cfg.RASEntries),
	}
}

// State is a checkpoint of the predictor's speculative state.
type State struct {
	ghr    uint64
	ras    []int
	rasTop int
}

// Snapshot captures the speculative state (history and RAS) so that it can
// be restored after a squash. The snapshot shares the live RAS; PushRAS, the
// only writer of RAS entries, clones the stack before writing while it is
// shared, so a snapshot never changes after it is taken.
func (p *Predictor) Snapshot() State {
	p.rasShared = true
	return State{ghr: p.ghr, ras: p.ras, rasTop: p.rasTop}
}

// GHR returns the global history captured in the snapshot; the core trains
// the direction tables at retirement with the history that was live when
// the branch predicted.
func (s State) GHR() uint64 { return s.ghr }

// Restore rewinds speculative state to a previously captured snapshot. It
// adopts the snapshot's RAS, which stays shared with the snapshot (it may be
// restored again).
func (p *Predictor) Restore(s State) {
	p.ghr = s.ghr
	p.ras = s.ras
	p.rasShared = true
	p.rasTop = s.rasTop
}

func (p *Predictor) localIdx(pc int) int {
	return pc & ((1 << p.cfg.LocalBits) - 1)
}

func (p *Predictor) globalIdx(pc int) int {
	return (pc ^ int(p.ghr)) & ((1 << p.cfg.GlobalBits) - 1)
}

func (p *Predictor) globalIdxAt(pc int, ghr uint64) int {
	return (pc ^ int(ghr)) & ((1 << p.cfg.GlobalBits) - 1)
}

func (p *Predictor) choiceIdx(pc int) int {
	return pc & ((1 << p.cfg.ChoiceBits) - 1)
}

func taken(counter uint8) bool { return counter >= 2 }

func bump(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// PredictCond predicts the direction of the conditional branch at pc and
// speculatively updates the global history with the prediction.
func (p *Predictor) PredictCond(pc int) bool {
	p.CondPredicts++
	var pred bool
	if taken(p.choice[p.choiceIdx(pc)]) {
		pred = taken(p.global[p.globalIdx(pc)])
	} else {
		pred = taken(p.local[p.localIdx(pc)])
	}
	p.ghr <<= 1
	if pred {
		p.ghr |= 1
	}
	return pred
}

// PredictIndirect predicts the target of an indirect jump or return-less
// indirect call at pc via the BTB. ok is false on a BTB miss (the core then
// stalls fetch until the jump resolves, as a real front end would on a
// missing target).
func (p *Predictor) PredictIndirect(pc int) (target int, ok bool) {
	p.BTBLookups++
	if p.btb != nil {
		if e := p.btb[pc%len(p.btb)]; e.valid && e.pc == pc {
			return e.target, true
		}
	}
	p.BTBMisses++
	return 0, false
}

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(returnPC int) {
	if p.rasShared {
		p.ras = append([]int(nil), p.ras...)
		p.rasShared = false
	}
	p.ras[p.rasTop] = returnPC
	p.rasTop = (p.rasTop + 1) % len(p.ras)
}

// PopRAS predicts a return target.
func (p *Predictor) PopRAS() int {
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	return p.ras[p.rasTop]
}

// TrainCond updates the direction tables for a retired conditional branch.
// ghrAtPredict must be the global history value that was live when the
// branch was predicted (the core keeps it in the branch's snapshot).
func (p *Predictor) TrainCond(pc int, outcome bool, ghrAtPredict uint64) {
	li := p.localIdx(pc)
	gi := p.globalIdxAt(pc, ghrAtPredict)
	ci := p.choiceIdx(pc)
	localRight := taken(p.local[li]) == outcome
	globalRight := taken(p.global[gi]) == outcome
	if localRight != globalRight {
		p.choice[ci] = bump(p.choice[ci], globalRight)
	}
	p.local[li] = bump(p.local[li], outcome)
	p.global[gi] = bump(p.global[gi], outcome)
}

// TrainTarget installs the resolved target of an indirect jump in the BTB.
func (p *Predictor) TrainTarget(pc, target int) {
	if p.btb == nil {
		p.btb = make([]btbEntry, p.cfg.BTBEntries)
	}
	p.btb[pc%len(p.btb)] = btbEntry{pc: pc, target: target, valid: true}
}

// NoteMisprediction counts a resolved conditional misprediction (for stats).
func (p *Predictor) NoteMisprediction() { p.CondMispredics++ }

// FixupHistory corrects the youngest speculative history bit after a
// conditional misprediction: the core restores the snapshot taken at the
// branch and then records the actual outcome.
func (p *Predictor) FixupHistory(outcome bool) {
	p.ghr <<= 1
	if outcome {
		p.ghr |= 1
	}
}

// PredictsFor reports what the front end does with op: whether it needs a
// direction prediction, an indirect target, or RAS handling.
func PredictsFor(op isa.Op) (cond, indirect, call, ret bool) {
	switch {
	case op.IsCondBranch():
		return true, false, false, false
	case op == isa.OpJmpI:
		return false, true, false, false
	case op == isa.OpCall:
		return false, false, true, false
	case op == isa.OpRet:
		return false, false, false, true
	}
	return false, false, false, false
}
