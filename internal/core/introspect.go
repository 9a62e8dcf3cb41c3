package core

import (
	"fmt"

	"invisispec/internal/config"
	"invisispec/internal/isa"
)

// This file exposes read-only views of the core's in-flight state for the
// hardening layer (internal/invariant): occupancy bounds, queue-window
// integrity, TSO write-buffer FIFO order, forward-progress inputs, and the
// last-squash record carried in deadlock dumps. It also hosts the mutation
// self-test hook that artificially stalls retirement.

// Occupancy is a snapshot of the core's structural-resource usage.
type Occupancy struct {
	ROB, LQ, SQ, WB             int
	ROBCap, LQCap, SQCap, WBCap int
}

// Occupancy returns the current queue occupancies and capacities.
func (c *Core) Occupancy() Occupancy {
	return Occupancy{
		ROB: c.robCnt, LQ: c.lqCnt, SQ: c.sqCnt, WB: len(c.wb),
		ROBCap: len(c.rob), LQCap: len(c.lq), SQCap: len(c.sq), WBCap: c.cfg.WBEntries,
	}
}

// Progress reports the core's forward-progress signals: instructions retired
// so far, the current fetch PC, and whether the thread has halted.
func (c *Core) Progress() (retired uint64, pc int, halted bool) {
	return c.st.Retired, c.pc, c.halted
}

// Epoch returns the core's current squash epoch (§VI-C).
func (c *Core) Epoch() uint64 { return c.epoch }

// WBView is one write-buffer entry's progress state.
type WBView struct {
	Token    uint64
	Inflight bool
	Done     bool
}

// WBFIFO returns the write buffer's entries in FIFO order.
func (c *Core) WBFIFO() []WBView {
	out := make([]WBView, len(c.wb))
	for i := range c.wb {
		out[i] = WBView{Token: c.wb[i].token, Inflight: c.wb[i].inflight, Done: c.wb[i].done}
	}
	return out
}

// SquashInfo records the most recent pipeline squash (for deadlock dumps).
type SquashInfo struct {
	Happened bool
	Cycle    uint64
	Reason   string
	Flushed  int // ROB entries squashed
	Redirect int // PC fetch resumed at
}

// LastSquash returns the most recent squash event, if any.
func (c *Core) LastSquash() SquashInfo { return c.lastSquash }

// StructuralCheck audits the core's queue invariants and returns a
// descriptive error for the first violation found:
//
//   - ROB/LQ/SQ/WB occupancies within configured capacities;
//   - every entry inside a circular-queue window [head, head+cnt) is valid
//     and sequence numbers are strictly increasing (squashes only ever
//     remove a suffix, so holes or inversions indicate corruption);
//   - ROB<->LQ/SQ cross-links agree in both directions;
//   - under TSO, the write buffer drains FIFO: tokens strictly increase, at
//     most one entry is in flight, and no performed entry lingers behind the
//     head (performed heads are popped eagerly);
//   - the incremental mirrors the per-cycle stages gate on agree with the
//     ROB they summarize (checkMirrors).
func (c *Core) StructuralCheck() error {
	o := c.Occupancy()
	switch {
	case o.ROB < 0 || o.ROB > o.ROBCap:
		return fmt.Errorf("core%d: ROB occupancy %d outside [0,%d]", c.id, o.ROB, o.ROBCap)
	case o.LQ < 0 || o.LQ > o.LQCap:
		return fmt.Errorf("core%d: LQ occupancy %d outside [0,%d]", c.id, o.LQ, o.LQCap)
	case o.SQ < 0 || o.SQ > o.SQCap:
		return fmt.Errorf("core%d: SQ occupancy %d outside [0,%d]", c.id, o.SQ, o.SQCap)
	case o.WB > o.WBCap:
		return fmt.Errorf("core%d: WB occupancy %d exceeds %d", c.id, o.WB, o.WBCap)
	}
	var prev uint64
	for i := 0; i < c.robCnt; i++ {
		e := c.robAt(i)
		if !e.valid {
			return fmt.Errorf("core%d: rob[%d] in window but invalid", c.id, i)
		}
		if i > 0 && e.seq <= prev {
			return fmt.Errorf("core%d: rob[%d] seq %d not above predecessor %d", c.id, i, e.seq, prev)
		}
		prev = e.seq
		if e.lqIdx >= 0 {
			lq := &c.lq[e.lqIdx]
			if !lq.valid || lq.seq != e.seq || lq.robIdx != c.robPhys(i) {
				return fmt.Errorf("core%d: rob[%d] seq %d -> lq[%d] link broken (valid=%v seq=%d robIdx=%d)",
					c.id, i, e.seq, e.lqIdx, lq.valid, lq.seq, lq.robIdx)
			}
		}
		if e.sqIdx >= 0 {
			sq := &c.sq[e.sqIdx]
			if !sq.valid || sq.seq != e.seq || sq.robIdx != c.robPhys(i) {
				return fmt.Errorf("core%d: rob[%d] seq %d -> sq[%d] link broken (valid=%v seq=%d robIdx=%d)",
					c.id, i, e.seq, e.sqIdx, sq.valid, sq.seq, sq.robIdx)
			}
		}
	}
	prev = 0
	for i := 0; i < c.lqCnt; i++ {
		e := c.lqAt(i)
		if !e.valid {
			return fmt.Errorf("core%d: lq[%d] in window but invalid", c.id, i)
		}
		if i > 0 && e.seq <= prev {
			return fmt.Errorf("core%d: lq[%d] seq %d not above predecessor %d", c.id, i, e.seq, prev)
		}
		prev = e.seq
		if !c.rob[e.robIdx].valid || c.rob[e.robIdx].seq != e.seq {
			return fmt.Errorf("core%d: lq[%d] seq %d -> rob[%d] link broken", c.id, i, e.seq, e.robIdx)
		}
	}
	prev = 0
	for i := 0; i < c.sqCnt; i++ {
		e := c.sqAt(i)
		if !e.valid {
			return fmt.Errorf("core%d: sq[%d] in window but invalid", c.id, i)
		}
		if i > 0 && e.seq <= prev {
			return fmt.Errorf("core%d: sq[%d] seq %d not above predecessor %d", c.id, i, e.seq, prev)
		}
		prev = e.seq
		if !c.rob[e.robIdx].valid || c.rob[e.robIdx].seq != e.seq {
			return fmt.Errorf("core%d: sq[%d] seq %d -> rob[%d] link broken", c.id, i, e.seq, e.robIdx)
		}
	}
	if err := c.checkMirrors(); err != nil {
		return err
	}
	return c.checkWBFIFO()
}

// checkMirrors recomputes the incremental ROB state from the window and
// compares: fencesPending equals the number of incomplete fence-like
// entries; every live rename reference names its producer's slot and seq,
// or a seq older than the ROB head's (the producer retired and srcValue
// reads retVal); and the scheduling sets (sched.go) hold exactly their
// members, with every bit outside the window clear.
func (c *Core) checkMirrors() error {
	pending := 0
	var headSeq uint64
	if c.robCnt > 0 {
		headSeq = c.robAt(0).seq
	}
	for i := 0; i < c.robCnt; i++ {
		e := c.robAt(i)
		if isFenceLike(e) && !e.fenceDone {
			pending++
		}
		for _, ref := range [2]struct {
			slot int
			seq  uint64
		}{{e.src1Rob, e.src1Seq}, {e.src2Rob, e.src2Seq}} {
			if ref.slot == noDep {
				continue
			}
			p := &c.rob[ref.slot]
			if !(p.valid && p.seq == ref.seq) && ref.seq >= headSeq {
				return fmt.Errorf("core%d: rob[%d] seq %d names producer seq %d in slot %d, which holds seq %d (valid=%v) and is not retired",
					c.id, i, e.seq, ref.seq, ref.slot, p.seq, p.valid)
			}
		}
	}
	if pending != c.fencesPending {
		return fmt.Errorf("core%d: pending-fence count %d, ROB holds %d incomplete fences",
			c.id, c.fencesPending, pending)
	}
	return c.checkSched()
}

// checkSched recomputes each scheduling set's membership for every bit
// position (physical slots and the padding of the last word).
func (c *Core) checkSched() error {
	for p := 0; p < 64*c.schedWords; p++ {
		var ready, barrier, execing bool
		if p < len(c.rob) && c.robLogical(p) < c.robCnt {
			e := &c.rob[p]
			ready = c.isReady(e)
			barrier = isFenceLike(e) && !e.fenceDone || e.inst.Op == isa.OpRMW && e.st != stCompleted
			execing = e.st == stExecuting
		}
		for _, set := range [3]struct {
			name string
			s    slotSet
			want bool
		}{{"ready", c.ready, ready}, {"barrier", c.barrier, barrier}, {"executing", c.execing, execing}} {
			if got := set.s.has(p); got != set.want {
				return fmt.Errorf("core%d: %s set has slot %d = %v, the ROB window says %v (head %d, count %d)",
					c.id, set.name, p, got, set.want, c.robHead, c.robCnt)
			}
		}
	}
	return nil
}

// checkWBFIFO audits write-buffer ordering. Both models require strictly
// increasing tokens (stores enter in retirement order and are never
// reordered); TSO additionally requires one-at-a-time drains and eager head
// popping, so a performed entry behind an unperformed one is a leak.
func (c *Core) checkWBFIFO() error {
	inflight := 0
	var prev uint64
	for i := range c.wb {
		w := &c.wb[i]
		if i > 0 && w.token <= prev {
			return fmt.Errorf("core%d: wb[%d] token %d not above predecessor %d (FIFO order broken)",
				c.id, i, w.token, prev)
		}
		prev = w.token
		if w.inflight {
			inflight++
		}
		if c.run.Consistency == config.TSO {
			if w.done {
				return fmt.Errorf("core%d: wb[%d] performed but not popped under TSO", c.id, i)
			}
			if w.inflight && i != 0 {
				return fmt.Errorf("core%d: wb[%d] in flight but not the FIFO head under TSO", c.id, i)
			}
		}
	}
	max := 8
	if c.run.Consistency == config.TSO {
		max = 1
	}
	if inflight > max {
		return fmt.Errorf("core%d: %d write-buffer drains in flight, max %d under %v",
			c.id, inflight, max, c.run.Consistency)
	}
	return nil
}

// InjectRetireStall permanently disables this core's retirement stage. It
// exists ONLY for the mutation self-test in internal/invariant, which seeds
// known bugs to prove the forward-progress watchdog fires; nothing in normal
// operation calls it.
func (c *Core) InjectRetireStall() { c.retireStalled = true }

// InjectFenceCountSkew corrupts the pending-fence count the fence stage
// gates on. It exists ONLY for the mutation self-test in internal/invariant,
// which proves StructuralCheck recomputes the count; nothing in normal
// operation calls it.
func (c *Core) InjectFenceCountSkew() { c.fencesPending++ }

// InjectReadySkew flips the ready-set bit of the ROB head's slot, so the
// set disagrees with the window whether or not that slot is occupied. It
// exists ONLY for the mutation self-test in internal/invariant, which proves
// StructuralCheck recomputes the scheduling sets; nothing in normal
// operation calls it.
func (c *Core) InjectReadySkew() { c.ready[c.robHead>>6] ^= 1 << uint(c.robHead&63) }
