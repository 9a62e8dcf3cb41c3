package core

import (
	"invisispec/internal/isa"
	"invisispec/internal/stats"
)

// retire commits completed instructions in program order, up to RetireWidth
// per cycle. It also takes exceptions (privileged loads), applies timer
// interrupts (unless the InvisiSpec §VI-D window defers them), moves stores
// into the write buffer, and trains the branch predictor's direction tables
// with retired outcomes only.
func (c *Core) retire() {
	if c.retireStalled {
		return // mutation self-test hook (introspect.go)
	}
	if c.cfg.InterruptInterval > 0 && c.now > 0 &&
		c.now%uint64(c.cfg.InterruptInterval) == 0 && c.robCnt > 0 {
		if c.interruptsDisabled() {
			c.st.InterruptsDelayed++
		} else {
			resume := c.robAt(0).pc
			c.squashFromLogical(0, stats.SquashInterrupt, resume, true)
			return
		}
	}
	for n := 0; n < c.cfg.RetireWidth && c.robCnt > 0; n++ {
		e := c.robAt(0)
		op := e.inst.Op
		if e.st != stCompleted {
			return
		}
		switch {
		case op == isa.OpLoad:
			lq := &c.lq[e.lqIdx]
			if lq.isUSL {
				if lq.needV && !lq.valExpDone {
					// A validation holds up retirement (§V-A4).
					c.st.ValidationStall++
					return
				}
				if !lq.needV && !lq.valExpIssued {
					// An exposure only needs to have been sent (§V-A4).
					return
				}
			}
			if lq.priv {
				// Exception at retirement: the load's value is never
				// committed; everything (including this entry) squashes and
				// control transfers to the handler.
				c.st.Retired++
				c.st.LoadsRetired++
				c.emitCommit(e, true)
				handler := c.prog.Handler
				c.squashFromLogical(0, stats.SquashException, handler, true)
				if handler < 0 {
					c.halted = true
				}
				return
			}
			c.commitDest(e)
			c.freeHeadLQ(e)
			c.st.LoadsRetired++
		case op == isa.OpPrefetch:
			lq := &c.lq[e.lqIdx]
			if c.sch.UsesInvisibleLoads() && lq.isUSL && !lq.valExpIssued {
				return // the exposure must have been initiated
			}
			c.freeHeadLQ(e)
		case op == isa.OpStore:
			if !c.retireStoreToWB(&c.sq[e.sqIdx]) {
				return // write buffer full
			}
			c.freeHeadSQ(e)
			c.st.StoresRetired++
		case op == isa.OpHalt:
			c.st.Retired++
			c.emitCommit(e, false)
			c.halted = true
			c.popHead()
			return
		default:
			if op.IsCondBranch() {
				c.st.CondBranches++
				c.bp.TrainCond(e.pc, e.actualTaken, e.snap.GHR())
			}
			c.commitDest(e)
		}
		c.st.Retired++
		c.emitCommit(e, false)
		if !e.synthetic {
			c.exposeILine(e.pc)
		}
		c.popHead()
	}
}

// commitDest writes the architectural register file and releases the rename
// mapping if this entry still owns it.
func (c *Core) commitDest(e *robEntry) {
	if !e.inst.Op.HasDest() {
		return
	}
	c.regs[e.inst.Rd] = e.destVal
	phys := c.robPhys(0)
	if c.rat[e.inst.Rd] == phys {
		c.rat[e.inst.Rd] = -1
	}
}

// popHead releases the retiring head slot. Its value moves to retVal, where
// consumers still holding a rename reference to it read it (srcValue) once
// the slot is recycled.
func (c *Core) popHead() {
	head := c.robHead
	c.retVal[head] = c.rob[head].destVal
	c.rob[head].valid = false
	c.robHead = ringAdd(head, 1, len(c.rob))
	c.robCnt--
}

func (c *Core) freeHeadLQ(e *robEntry) {
	lq := &c.lq[e.lqIdx]
	// Retire-time defense cleanup (e.g. SpecBox clears the retiring
	// load's speculation label).
	c.sch.OnRetireLoad(c.st, lq.isUSL)
	lq.valid = false
	if e.lqIdx != c.lqHead {
		panic("core: retiring load is not the LQ head")
	}
	c.lqHead = ringAdd(c.lqHead, 1, len(c.lq))
	c.lqCnt--
}

func (c *Core) freeHeadSQ(e *robEntry) {
	sq := &c.sq[e.sqIdx]
	sq.valid = false
	if e.sqIdx != c.sqHead {
		panic("core: retiring store is not the SQ head")
	}
	c.sqHead = ringAdd(c.sqHead, 1, len(c.sq))
	c.sqCnt--
}
