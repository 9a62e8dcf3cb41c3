package core

import (
	"invisispec/internal/bpred"
	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/stats"
)

// stage tracks a ROB entry's progress.
type stage uint8

const (
	stDispatched stage = iota // waiting for operands / issue slot
	stExecuting               // in a functional unit (or address generation)
	stWaitMem                 // address generated; waiting on the memory system
	stCompleted               // result available (loads: performed)
)

const noDep = -1

// robEntry is one in-flight dynamic instruction.
type robEntry struct {
	valid     bool
	seq       uint64
	pc        int
	inst      isa.Inst
	synthetic bool // defense fence injected at decode (Table V)
	st        stage

	execDoneAt uint64

	// Operand capture: srcNRob is the producing ROB slot or noDep when the
	// value is already in srcNVal. srcNSeq is the producer's seq: once the
	// slot holds a different seq the producer has retired and its value is
	// in Core.retVal[srcNRob] (see srcValue).
	src1Rob int
	src2Rob int
	src1Seq uint64
	src2Seq uint64
	src1Val uint64
	src2Val uint64
	destVal uint64

	// Control flow.
	predTaken    bool
	predTarget   int
	btbMiss      bool // the indirect jump fetch is stalled on
	hasSnap      bool
	snap         bpred.State
	resolved     bool
	actualTaken  bool
	actualTarget int
	mispredicted bool

	// Memory.
	lqIdx int // physical LQ slot or -1
	sqIdx int // physical SQ slot or -1

	// RMW progress.
	rmwIssued bool

	// Fence-like ops.
	fenceDone bool
}

func needsSrc1(op isa.Op) bool {
	switch op {
	case isa.OpNop, isa.OpLui, isa.OpJmp, isa.OpCall, isa.OpFence,
		isa.OpAcquire, isa.OpRelease, isa.OpHalt:
		return false
	}
	return true
}

func needsSrc2(op isa.Op) bool {
	switch op {
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl,
		isa.OpShr, isa.OpMul, isa.OpDiv, isa.OpDivS, isa.OpRemU, isa.OpSlt,
		isa.OpStore, isa.OpRMW,
		isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		return true
	}
	return false
}

// ringAdd returns (base+i) mod n for base in [0,n) and i in [0,n]: every
// ring index in the core (ROB, LQ, SQ positions and head advances) stays
// within one lap, so a conditional subtract replaces the hardware divide.
func ringAdd(base, i, n int) int {
	p := base + i
	if p >= n {
		p -= n
	}
	return p
}

// robAt returns the entry at logical position i (0 = oldest).
func (c *Core) robAt(i int) *robEntry {
	return &c.rob[ringAdd(c.robHead, i, len(c.rob))]
}

// robPhys returns the physical index of logical position i.
func (c *Core) robPhys(i int) int { return ringAdd(c.robHead, i, len(c.rob)) }

// robLogical returns the logical position of a physical slot.
func (c *Core) robLogical(phys int) int {
	l := phys - c.robHead
	if l < 0 {
		l += len(c.rob)
	}
	return l
}

// dispatch renames and inserts instructions from the fetch buffer into the
// ROB (and LQ/SQ), applying the defense scheme's front-end policy:
// dispatch stalls (BasicBlocker-style block boundaries) and synthetic
// fence injection (Table V).
func (c *Core) dispatch() {
	width := c.cfg.FetchWidth
	for n := 0; n < width && len(c.fetchBuf) > 0; n++ {
		if c.haltSeen {
			return
		}
		fi := &c.fetchBuf[0]
		op := fi.inst.Op
		// The scheme may refuse to dispatch past a basic-block boundary
		// while older control flow is unresolved. The stall is transient:
		// branches resolve unconditionally once their operands arrive, so
		// the front end always unblocks.
		if c.sch.StallDispatch(c.view(), fi.blockStart) {
			return
		}
		// Defense fences occupy an extra ROB slot (Table V).
		fenceBefore := c.sch.FenceBeforeLoads() && op == isa.OpLoad
		fenceAfter := c.sch.FenceAfterBranches() && isBranchNeedingFence(op)
		slots := 1
		if fenceBefore || fenceAfter {
			slots = 2
		}
		if c.robCnt+slots > len(c.rob) {
			return
		}
		needsLQ := op == isa.OpLoad || op == isa.OpPrefetch
		needsSQ := op == isa.OpStore
		if needsLQ && c.lqCnt >= len(c.lq) {
			return
		}
		if needsSQ && c.sqCnt >= len(c.sq) {
			return
		}
		if fenceBefore {
			c.insertEntry(&fetchedInst{pc: fi.pc, inst: isa.Inst{Op: isa.OpFence}, synthetic: true})
			n++
		}
		c.fetchBuf = c.fetchBuf[1:]
		c.insertEntry(fi)
		if op == isa.OpHalt {
			// Halts serialize the front end: nothing beyond a halt is
			// dispatched (it would execute speculatively past the end of
			// the program, polluting the caches).
			c.haltSeen = true
			c.fetchBuf = c.fetchBuf[:0]
			return
		}
		if fenceAfter {
			c.insertEntry(&fetchedInst{pc: fi.pc, inst: isa.Inst{Op: isa.OpFence}, synthetic: true})
			n++
		}
	}
}

func isBranchNeedingFence(op isa.Op) bool {
	return op.IsCondBranch() || op == isa.OpJmpI || op == isa.OpRet
}

// insertEntry allocates and renames one ROB entry. Callers have verified
// space. A synthetic fetchedInst (defense fence) consumes no fetch-buffer
// slot.
func (c *Core) insertEntry(fi *fetchedInst) {
	phys := c.robPhys(c.robCnt)
	c.robCnt++
	e := &c.rob[phys]
	c.nextToken++
	*e = robEntry{
		valid:      true,
		seq:        c.nextToken,
		pc:         fi.pc,
		inst:       fi.inst,
		synthetic:  fi.synthetic,
		st:         stDispatched,
		src1Rob:    noDep,
		src2Rob:    noDep,
		predTaken:  fi.predTaken,
		predTarget: fi.predTarget,
		btbMiss:    fi.btbMiss,
		hasSnap:    fi.hasSnap,
		snap:       fi.snap,
		lqIdx:      -1,
		sqIdx:      -1,
	}
	op := fi.inst.Op
	if needsSrc1(op) {
		if p := c.rat[fi.inst.Rs1]; p >= 0 {
			e.src1Rob, e.src1Seq = p, c.rob[p].seq
		} else {
			e.src1Val = c.regs[fi.inst.Rs1]
		}
	}
	if needsSrc2(op) {
		if p := c.rat[fi.inst.Rs2]; p >= 0 {
			e.src2Rob, e.src2Seq = p, c.rob[p].seq
		} else {
			e.src2Val = c.regs[fi.inst.Rs2]
		}
	}
	if op.HasDest() {
		c.rat[fi.inst.Rd] = phys
	}
	switch {
	case op == isa.OpLoad || op == isa.OpPrefetch:
		e.lqIdx = c.allocLQ(e.seq, phys, fi.inst)
	case op == isa.OpStore:
		e.sqIdx = c.allocSQ(e.seq, phys, fi.inst)
	case op == isa.OpNop || op == isa.OpHalt:
		e.st = stCompleted
	case op == isa.OpAcquire || op == isa.OpRelease:
		if c.run.Consistency == config.TSO {
			// TSO already provides acquire/release ordering.
			e.st = stCompleted
			e.fenceDone = true
		}
	}
	if isFenceLike(e) && !e.fenceDone {
		c.fencesPending++
	}
	c.insertSched(phys, e)
}

// srcValue reads the producer a rename reference (slot, seq) names, and
// reports whether its value is available. While the slot still holds seq the
// producer is in flight; otherwise it has retired and retVal[slot] holds its
// value, because the slot's next retirement comes after every consumer of its
// previous occupant has retired (DESIGN.md §10).
func (c *Core) srcValue(slot int, seq uint64) (uint64, bool) {
	p := &c.rob[slot]
	if p.seq != seq {
		return c.retVal[slot], true
	}
	return p.destVal, p.st == stCompleted
}

// captureSrc pulls an available source operand into val and drops its
// rename reference.
func (c *Core) captureSrc(rob *int, seq, val *uint64) {
	if *rob != noDep {
		*val, _ = c.srcValue(*rob, *seq)
		*rob = noDep
	}
}

// captureOperands pulls both source operands of a ready entry (issue only
// selects from the ready set, whose members have both available).
func (c *Core) captureOperands(e *robEntry) {
	c.captureSrc(&e.src1Rob, &e.src1Seq, &e.src1Val)
	c.captureSrc(&e.src2Rob, &e.src2Seq, &e.src2Val)
}

// issue selects up to IssueWidth ready instructions, oldest first, honouring
// functional-unit counts and fence blocking. It walks only the ready and
// barrier sets (sched.go): a dispatched entry whose operands are not yet
// available neither issues nor blocks anything, and neither does an entry
// past dispatch that is not a barrier. An entry skipped because an older
// barrier blocks it does not block younger entries itself. The sets are
// read live, so an entry woken earlier in this tick (including by this
// walk's own completions) is issued in the same walk.
func (c *Core) issue() {
	slots := c.cfg.IssueWidth
	alus := c.cfg.IntALUs
	muldivs := c.cfg.MulDivUnits
	agus := c.cfg.L1D.Ports
	blockedAll := false // incomplete synthetic (defense) fence seen
	blockedMem := false // incomplete memory fence / acquire / atomic seen
	for l, p := c.nextIn(0, c.ready, c.barrier); l < c.robCnt && slots > 0; l, p = c.nextIn(l+1, c.ready, c.barrier) {
		e := &c.rob[p]
		op := e.inst.Op
		if e.st == stDispatched {
			if blockedAll {
				return // nothing younger may issue
			}
			if blockedMem && (op.IsMem() || op == isa.OpFence) {
				continue
			}
			if !c.ready.has(p) {
				goto trackFences
			}
			c.captureOperands(e)
			switch {
			case op == isa.OpCycle:
				if alus == 0 {
					goto trackFences
				}
				alus--
				c.startExec(p, 1)
			case op == isa.OpMul:
				if muldivs == 0 {
					goto trackFences
				}
				muldivs--
				c.startExec(p, uint64(c.cfg.LatMul))
			case op == isa.OpDiv || op == isa.OpDivS || op == isa.OpRemU:
				if muldivs == 0 {
					goto trackFences
				}
				muldivs--
				c.startExec(p, uint64(c.cfg.LatDiv))
			case op.IsALU():
				if alus == 0 {
					goto trackFences
				}
				alus--
				c.startExec(p, uint64(c.cfg.LatALU))
			case op.IsBranch():
				if alus == 0 {
					goto trackFences
				}
				alus--
				c.startExec(p, 1)
			case op.IsMem():
				// Address generation.
				if agus == 0 {
					goto trackFences
				}
				agus--
				c.startExec(p, 1)
			case op == isa.OpFence || op == isa.OpAcquire || op == isa.OpRelease:
				// Fences occupy no FU; completion is tracked separately.
				e.st = stWaitMem
				c.ready.remove(p)
			default:
				c.complete(p)
			}
			slots--
		}
	trackFences:
		all, mem := blocksYounger(e)
		blockedAll = blockedAll || all
		blockedMem = blockedMem || mem
	}
}

// startExec sends the entry in slot p to a functional unit for lat cycles.
func (c *Core) startExec(p int, lat uint64) {
	e := &c.rob[p]
	e.st = stExecuting
	e.execDoneAt = c.now + lat
	c.ready.remove(p)
	c.execing.add(p)
}

func isFenceLike(e *robEntry) bool {
	switch e.inst.Op {
	case isa.OpFence, isa.OpAcquire, isa.OpRelease:
		return true
	}
	return false
}

// completeExec moves instructions whose functional-unit latency has elapsed
// out of stExecuting, resolving branches and store addresses. It walks the
// executing set oldest first; a squash ends the walk (the squash dropped
// every younger entry from the set, and older survivors still due are
// taken next cycle).
func (c *Core) completeExec() {
	for l, p := c.nextIn(0, c.execing, c.execing); l < c.robCnt; l, p = c.nextIn(l+1, c.execing, c.execing) {
		e := &c.rob[p]
		if e.execDoneAt > c.now {
			continue
		}
		c.execing.remove(p)
		op := e.inst.Op
		switch {
		case op == isa.OpCycle:
			e.destVal = c.now
			c.complete(p)
		case op.IsALU():
			e.destVal = isa.EvalALU(op, e.src1Val, e.src2Val, e.inst.Imm)
			c.complete(p)
		case op.IsBranch():
			if c.resolveBranch(l, e) {
				return // squash invalidated the walk
			}
		case op == isa.OpLoad || op == isa.OpPrefetch:
			lq := &c.lq[e.lqIdx]
			// Natural alignment mirrors the golden interpreter: the LSQ
			// forwarding masks and the speculative buffer track data within
			// one 64-byte line, which aligned accesses never straddle.
			lq.addr = isa.AlignAddr(e.src1Val+uint64(e.inst.Imm), lq.size)
			lq.addrReady = true
			e.st = stWaitMem
		case op == isa.OpStore:
			sq := &c.sq[e.sqIdx]
			sq.addr = isa.AlignAddr(e.src1Val+uint64(e.inst.Imm), sq.size)
			sq.addrReady = true
			sq.data = e.src2Val
			sq.dataReady = true
			c.complete(p)
			if c.storeAliasSquash(l, sq) {
				return
			}
		case op == isa.OpRMW, op == isa.OpFlush:
			e.st = stWaitMem // waits for ROB head; memStep issues it
		default:
			c.complete(p)
		}
	}
}

// resolveBranch compares outcome with prediction, squashing on a
// misprediction. It reports whether a squash happened.
func (c *Core) resolveBranch(logical int, e *robEntry) bool {
	op := e.inst.Op
	e.resolved = true
	var next int
	switch {
	case op.IsCondBranch():
		e.actualTaken = isa.BranchTaken(op, e.src1Val, e.src2Val)
		e.actualTarget = e.inst.Target
		if e.actualTaken {
			next = e.inst.Target
		} else {
			next = e.pc + 1
		}
	case op == isa.OpJmp:
		e.actualTaken, e.actualTarget = true, e.inst.Target
		next = e.inst.Target
	case op == isa.OpCall:
		e.actualTaken, e.actualTarget = true, e.inst.Target
		e.destVal = uint64(e.pc + 1)
		next = e.inst.Target
	case op == isa.OpJmpI, op == isa.OpRet:
		e.actualTaken = true
		e.actualTarget = int(e.src1Val)
		next = e.actualTarget
		if op == isa.OpJmpI {
			c.bp.TrainTarget(e.pc, e.actualTarget)
		}
	}
	c.complete(c.robPhys(logical))

	if c.fetchStalled && e.btbMiss {
		// This is the exact instruction fetch is stalled on (BTB miss), by
		// construction the youngest ever fetched: resume down the resolved
		// path; nothing younger exists to squash. An OLDER branch resolving
		// during the stall must not take this path — the stalled jump may
		// still be in the fetch buffer (not yet in the ROB), and wrong-path
		// instructions between the two would survive an un-squashed
		// redirect.
		c.fetchStalled = false
		c.pc = next
		return false
	}

	mispredict := false
	if op.IsCondBranch() {
		mispredict = e.actualTaken != e.predTaken
	} else if op == isa.OpJmpI || op == isa.OpRet {
		mispredict = e.actualTarget != e.predTarget
	}
	if !mispredict {
		return false
	}
	e.mispredicted = true
	c.bp.NoteMisprediction()
	c.st.Mispredicts++
	c.bp.Restore(e.snap)
	if op.IsCondBranch() {
		c.bp.FixupHistory(e.actualTaken)
	} else if op == isa.OpRet {
		// The snapshot re-pushed the consumed RAS entry; the return did
		// architecturally consume it.
		c.bp.PopRAS()
	}
	c.squashFromLogical(logical+1, stats.SquashBranch, next, false)
	return true
}

// updateFenceCompletion advances fence-like instructions. A defense
// (synthetic) fence completes when every older instruction has completed; a
// full fence additionally requires all older stores to have performed (no
// older store in the ROB and an empty write buffer); an acquire requires all
// older loads performed; a release requires older loads performed and older
// stores performed.
//
// The scan ends at the youngest incomplete fence-like entry: nothing younger
// can complete here, so with fencesPending == 0 it does not run at all.
func (c *Core) updateFenceCompletion() {
	left := c.fencesPending
	allOlderDone := true
	olderLoadsPerformed := true
	olderStorePresent := false
	for i := 0; i < c.robCnt && left > 0; i++ {
		e := c.robAt(i)
		op := e.inst.Op
		if isFenceLike(e) && !e.fenceDone {
			left--
			done := false
			switch {
			case e.synthetic:
				done = allOlderDone
			case op == isa.OpFence:
				done = allOlderDone && !olderStorePresent && len(c.wb) == 0
			case op == isa.OpAcquire:
				done = olderLoadsPerformed
			case op == isa.OpRelease:
				done = olderLoadsPerformed && !olderStorePresent && len(c.wb) == 0
			}
			if done {
				e.fenceDone = true
				c.complete(c.robPhys(i))
				c.fencesPending--
			}
		}
		if e.st != stCompleted {
			allOlderDone = false
		}
		if op == isa.OpLoad {
			if e.lqIdx >= 0 && !c.lq[e.lqIdx].performed {
				olderLoadsPerformed = false
				allOlderDone = false
			}
		}
		if op == isa.OpStore {
			olderStorePresent = true
		}
		if isFenceLike(e) && !e.fenceDone {
			allOlderDone = false
		}
	}
}
