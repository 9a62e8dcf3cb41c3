package core

import "invisispec/internal/stats"

// squashFromLogical squashes every ROB entry at logical position L and
// younger, rebuilds the rename table from the survivors, restores predictor
// speculative state, increments the squash epoch (§VI-C) and redirects
// fetch. restoreBpred selects whether to rewind to the first squashed
// control-flow snapshot (load-initiated squashes); branch mispredictions
// restore their own snapshot before calling this with restoreBpred=false.
func (c *Core) squashFromLogical(L int, reason stats.SquashReason, redirect int, restoreBpred bool) {
	if L < 0 {
		L = 0
	}
	c.st.Squashes[reason]++
	flushed := 0
	if L < c.robCnt {
		flushed = c.robCnt - L
		c.st.Squashed += uint64(flushed)
	}
	c.lastSquash = SquashInfo{
		Happened: true, Cycle: c.now, Reason: reason.String(),
		Flushed: flushed, Redirect: redirect,
	}
	if restoreBpred {
		restored := false
		for i := L; i < c.robCnt; i++ {
			if e := c.robAt(i); e.hasSnap {
				c.bp.Restore(e.snap)
				restored = true
				break
			}
		}
		if !restored {
			// No squashed ROB entry carries a snapshot, but instructions
			// still in the fetch buffer (all younger than the whole ROB, and
			// about to be discarded below) may already have speculated
			// through the predictor — calls pushed the RAS, ret/cond
			// predictions shifted the GHR. Rewind to the oldest such
			// snapshot, or stale entries survive the squash: a deep
			// CALL-nest squashed this way leaves rasTop wrapped into
			// garbage and every return after re-fetch mispredicts.
			for _, fi := range c.fetchBuf {
				if fi.hasSnap {
					c.bp.Restore(fi.snap)
					break
				}
			}
		}
	}
	specFlushed := 0
	for i := c.robCnt - 1; i >= L; i-- {
		e := c.robAt(i)
		if e.lqIdx >= 0 && c.lq[e.lqIdx].valid && c.lq[e.lqIdx].seq == e.seq {
			if c.lq[e.lqIdx].isUSL {
				specFlushed++
			}
			c.lq[e.lqIdx].valid = false
			c.lqCnt--
		}
		if e.sqIdx >= 0 && c.sq[e.sqIdx].valid && c.sq[e.sqIdx].seq == e.seq {
			c.sq[e.sqIdx].valid = false
			c.sqCnt--
		}
		if isFenceLike(e) && !e.fenceDone {
			c.fencesPending--
		}
		c.unschedule(c.robPhys(i))
		e.valid = false
	}
	// Squash-time defense cleanup (e.g. SpecBox flushes the labels of the
	// speculative loads the squash invalidated).
	c.sch.OnSquash(c.st, specFlushed)
	if L < c.robCnt {
		c.robCnt = L
	}
	// Rebuild the rename table from surviving entries, oldest first.
	for r := range c.rat {
		c.rat[r] = -1
	}
	for i := 0; i < c.robCnt; i++ {
		e := c.robAt(i)
		if e.inst.Op.HasDest() {
			c.rat[e.inst.Rd] = c.robPhys(i)
		}
	}
	c.epoch++
	c.fetchBuf = c.fetchBuf[:0]
	c.fetchInFlight = false
	c.fetchToken = 0
	c.fetchStalled = false
	c.haltSeen = false
	c.pc = redirect
	c.fetchResumeAt = c.now + uint64(c.cfg.RedirectPenalty)
}
