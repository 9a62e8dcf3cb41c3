package core

import (
	"invisispec/internal/config"
	"invisispec/internal/isa"
)

// This file implements the engine.Component quiescence side of the core:
// NextWake derives, from post-tick pipeline state only, the earliest future
// cycle at which any stage could perform non-trivial work, and SkipIdle
// bulk-advances the per-cycle counters across a fast-forward jump.
//
// The contract with the kernel (internal/engine) is one-way conservative:
// NextWake may under-promise (report "busy" for a cycle that turns out to be
// a no-op — the kernel just ticks it, exactly like the reference stepper)
// but must never over-promise (report a wake beyond a cycle where a stage
// would have acted — that would diverge from the reference stepper). Every
// predicate below therefore mirrors the corresponding stage's own gating
// conditions read-only, in the same order the stage evaluates them; the
// golden-equivalence tests in internal/sim hold the two kernels to
// byte-identical stats fingerprints.
//
// The stages themselves keep incremental state so a tick costs what it does,
// not what the ROB holds. Each mirror shadows one stage, is updated wherever
// that stage's input changes, and is recomputed from the ROB and compared by
// StructuralCheck (introspect.go):
//
//	fencesPending  incomplete fence-like entries: updateFenceCompletion and
//	               fenceWouldComplete stop after the last one, and skip the
//	               ROB entirely at 0 (fence stage).
//	ready          dispatched entries whose operands are both available;
//	barrier        incomplete fence-likes and atomics; issue and robWake
//	               walk ready ∪ barrier oldest first (issue stage).
//	execing        entries in a functional unit; completeExec and robWake's
//	               wake hint walk it (execute stage). All three are bitsets
//	               over physical ROB slots kept by insertSched, complete,
//	               startExec and unschedule (sched.go).
//	retVal, srcNSeq  retired producers' values and the seq each rename
//	               reference expects; srcValue (and srcAvailable here) read a
//	               retired producer from retVal, so popHead is O(1)
//	               (rename/retire stage).

// NeverWake mirrors engine.Never ("waiting on an external response only")
// without importing the engine package: core sits below the kernel layer.
const NeverWake = ^uint64(0)

// NextWake reports the earliest cycle > now at which this core could do
// non-trivial work, assuming no memory response arrives before then (the
// hierarchy's own NextWake bounds response arrivals). It is side-effect-free.
func (c *Core) NextWake(now uint64) uint64 {
	busy := now + 1
	if c.halted {
		// A halted core only drains its write buffer; entries already in
		// flight complete via hierarchy events.
		if c.wbWantsIssue() {
			return busy
		}
		return NeverWake
	}
	wake := NeverWake
	if !c.retireStalled {
		// Timer interrupts fire at fixed boundaries whenever the ROB is
		// occupied: never skip over one (retire either squashes there or
		// counts a deferred interrupt).
		if c.cfg.InterruptInterval > 0 && c.robCnt > 0 {
			ii := uint64(c.cfg.InterruptInterval)
			if b := now + ii - now%ii; b < wake {
				wake = b
			}
		}
		if c.retireWouldAct() {
			return busy
		}
	}
	if c.wbWantsIssue() || c.fenceWouldComplete() || c.headMemWouldAct() ||
		c.invisiWouldIssue() || c.dispatchWouldInsert() {
		return busy
	}
	if w, b := c.robWake(); b {
		return busy
	} else if w < wake {
		wake = w
	}
	if w, b := c.lqWake(); b {
		return busy
	} else if w < wake {
		wake = w
	}
	if w, b := c.fetchWake(now); b {
		return busy
	} else if w < wake {
		wake = w
	}
	if wake <= now {
		// Defensive clamp: a mid-tick early return (e.g. a squash aborting a
		// scan) can leave state due "in the past"; treat it as busy.
		return busy
	}
	return wake
}

// SkipIdle advances the per-cycle counters by k cycles of verified idleness:
// Tick unconditionally counts a cycle for a non-halted core, and retire
// counts a validation-stall cycle whenever the ROB head is a USL held up by
// its validation. Both predicates are constant across an idle window, so a
// jump of k cycles accounts exactly k of each.
func (c *Core) SkipIdle(k uint64) {
	if c.halted {
		return
	}
	c.st.Cycles += k
	if c.validationStalled() {
		c.st.ValidationStall += k
	}
}

// validationStalled mirrors retire's §V-A4 stall accounting: the ROB head is
// a completed USL load whose required validation has not finished.
func (c *Core) validationStalled() bool {
	if c.retireStalled || c.robCnt == 0 {
		return false
	}
	e := c.robAt(0)
	if e.st != stCompleted || e.inst.Op != isa.OpLoad {
		return false
	}
	lq := &c.lq[e.lqIdx]
	return lq.isUSL && lq.needV && !lq.valExpDone
}

// retireWouldAct mirrors retire's head-of-ROB gating: true when at least the
// oldest instruction would commit (or take its exception) next cycle.
func (c *Core) retireWouldAct() bool {
	if c.robCnt == 0 {
		return false
	}
	e := c.robAt(0)
	if e.st != stCompleted {
		return false
	}
	switch e.inst.Op {
	case isa.OpLoad:
		lq := &c.lq[e.lqIdx]
		if lq.isUSL {
			if lq.needV && !lq.valExpDone {
				return false // validation stall (bulk-accounted by SkipIdle)
			}
			if !lq.needV && !lq.valExpIssued {
				return false // exposure not yet initiated
			}
		}
	case isa.OpPrefetch:
		lq := &c.lq[e.lqIdx]
		if c.sch.UsesInvisibleLoads() && lq.isUSL && !lq.valExpIssued {
			return false
		}
	case isa.OpStore:
		return len(c.wb) < c.cfg.WBEntries
	}
	return true
}

// wbWantsIssue mirrors drainWriteBuffer: true when a buffered store would
// submit a GetX next cycle (an un-issued entry within the consistency
// model's in-flight window).
func (c *Core) wbWantsIssue() bool {
	maxInflight := 1
	if c.run.Consistency == config.RC {
		maxInflight = 8
	}
	inflight := 0
	for i := range c.wb {
		w := &c.wb[i]
		if w.done {
			continue
		}
		if w.inflight {
			inflight++
			continue
		}
		if inflight >= maxInflight {
			return false
		}
		return true
	}
	return false
}

// fenceWouldComplete mirrors updateFenceCompletion: true when some
// fence-like entry's completion condition already holds, so the next tick
// would complete it.
func (c *Core) fenceWouldComplete() bool {
	left := c.fencesPending
	allOlderDone := true
	olderLoadsPerformed := true
	olderStorePresent := false
	for i := 0; i < c.robCnt && left > 0; i++ {
		e := c.robAt(i)
		op := e.inst.Op
		if isFenceLike(e) && !e.fenceDone {
			left--
			switch {
			case e.synthetic:
				if allOlderDone {
					return true
				}
			case op == isa.OpFence:
				if allOlderDone && !olderStorePresent && len(c.wb) == 0 {
					return true
				}
			case op == isa.OpAcquire:
				if olderLoadsPerformed {
					return true
				}
			case op == isa.OpRelease:
				if olderLoadsPerformed && !olderStorePresent && len(c.wb) == 0 {
					return true
				}
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
	return false
}

// headMemWouldAct mirrors flushStep and rmwStep: both act only on the ROB
// head once it reaches stWaitMem.
func (c *Core) headMemWouldAct() bool {
	if c.robCnt == 0 {
		return false
	}
	e := c.robAt(0)
	switch e.inst.Op {
	case isa.OpFlush:
		return e.st == stWaitMem
	case isa.OpRMW:
		return e.st == stWaitMem && !e.rmwIssued && len(c.wb) == 0
	}
	return false
}

// robWake mirrors issue and completeExec over the scheduling sets: it
// reports busy when issue's walk of the ready and barrier sets would reach
// an unblocked ready entry, and otherwise collects the earliest
// functional-unit completion in the executing set as a wake hint
// (completeExec compares execDoneAt for equality-or-past, so the jump must
// land exactly on it — OpCycle reads the landing cycle as its value).
func (c *Core) robWake() (uint64, bool) {
	blockedAll := false // incomplete synthetic (defense) fence seen
	blockedMem := false // incomplete memory fence / acquire / atomic seen
	for l, p := c.nextIn(0, c.ready, c.barrier); l < c.robCnt && !blockedAll; l, p = c.nextIn(l+1, c.ready, c.barrier) {
		e := &c.rob[p]
		op := e.inst.Op
		if e.st == stDispatched {
			// Mirror issue()'s skip structure: entries suppressed by an older
			// fence do not track their own fence flags this cycle either.
			if blockedMem && (op.IsMem() || op == isa.OpFence) {
				continue
			}
			if c.ready.has(p) {
				return 0, true
			}
		}
		all, mem := blocksYounger(e)
		blockedAll = blockedAll || all
		blockedMem = blockedMem || mem
	}
	wake := NeverWake
	for l, p := c.nextIn(0, c.execing, c.execing); l < c.robCnt; l, p = c.nextIn(l+1, c.execing, c.execing) {
		if d := c.rob[p].execDoneAt; d < wake {
			wake = d
		}
	}
	return wake, false
}

// srcAvailable reports whether the value a rename reference names is
// available (a noDep reference holds its value already).
func (c *Core) srcAvailable(slot int, seq uint64) bool {
	if slot == noDep {
		return true
	}
	_, ok := c.srcValue(slot, seq)
	return ok
}

// lqWake mirrors memStep's per-entry progression: deferred-TLB loads that
// have reached visibility, reuse waiters whose source resolved, and loads
// with a pending issue are busy; in-flight page walks contribute their
// completion cycle as a wake hint.
func (c *Core) lqWake() (uint64, bool) {
	wake := NeverWake
	for i := 0; i < c.lqCnt; i++ {
		e := c.lqAt(i)
		if !e.addrReady || e.performed && !e.isUSL {
			continue
		}
		if !e.translated {
			if e.walking {
				if e.walkDoneAt < wake {
					wake = e.walkDoneAt
				}
				continue
			}
			// Untranslated and not walking: the miss was deferred (§VI-E3).
			// translateStep acts once the load is visible (deferred walk
			// starts, or the access becomes safe and translates normally).
			if c.loadVisible(i, e) {
				return 0, true
			}
			continue
		}
		if e.waitingReuse {
			src := &c.lq[e.reuseFromIdx]
			if !src.valid || src.seq != e.reuseFromSeq || src.lineCaptured {
				return 0, true // reuseStep would copy the line or re-issue
			}
			continue
		}
		needsIssue := !e.issued &&
			(!e.performed || (e.isUSL && !e.lineCaptured && !e.waitingReuse))
		if needsIssue {
			// The only state in which tryIssueLoad defers without any side
			// effect is a known overlapping store still pending; everything
			// else (forwarding scan, hazard recording, Submit) is work.
			if !(e.isUSL && e.performed && !e.lineCaptured) &&
				e.stallUntilStore != 0 && c.storePending(e.stallUntilStore) {
				continue
			}
			return 0, true
		}
	}
	return wake, false
}

// invisiWouldIssue mirrors invisiStep's program-order walk: true when some
// USL would submit its validation or exposure next cycle. The walk stops at
// the same ordering barriers invisiStep enforces (in-flight validations,
// uncaptured lines, invisibility, same-line total order).
func (c *Core) invisiWouldIssue() bool {
	if !c.sch.UsesInvisibleLoads() {
		return false
	}
	for i := 0; i < c.lqCnt; i++ {
		e := c.lqAt(i)
		if !e.valid || !e.isUSL {
			continue
		}
		if e.valExpIssued {
			if e.valExpDone {
				continue
			}
			if e.needV && (c.sch.ValidationBlocksYounger() || !c.cfg.OverlapValExp) {
				return false
			}
			if !e.needV && !c.cfg.OverlapValExp {
				return false
			}
			continue
		}
		if !e.lineCaptured || e.waitingReuse {
			return false
		}
		if !c.loadVisible(i, e) {
			return false
		}
		for j := 0; j < i; j++ {
			o := c.lqAt(j)
			if o.valid && o.isUSL && o.valExpIssued && !o.valExpDone &&
				o.lineAddr() == e.lineAddr() {
				return false
			}
		}
		return true
	}
	return false
}

// fetchWake mirrors fetch's gating. When only the squash-redirect penalty
// holds fetch back, the resume cycle is a wake hint; every other reason to
// not fetch resolves via responses or younger-stage work.
func (c *Core) fetchWake(now uint64) (uint64, bool) {
	if c.fetchStalled || c.fetchInFlight || c.haltSeen {
		return NeverWake, false
	}
	if len(c.fetchBuf) >= 2*c.cfg.FetchWidth {
		return NeverWake, false
	}
	for _, fi := range c.fetchBuf {
		if fi.inst.Op == isa.OpHalt {
			return NeverWake, false
		}
	}
	if c.fetchResumeAt > now+1 {
		return c.fetchResumeAt, false
	}
	return 0, true
}

// dispatchWouldInsert mirrors dispatch's head-of-buffer gating: true when
// the oldest fetched instruction has the ROB/LQ/SQ space it needs. The
// defense StallDispatch hook is deliberately NOT mirrored: reporting busy
// while the scheme stalls dispatch is an allowed under-promise of the
// NextWake contract (a wasted poll, never a missed event), and the stall
// clears via branch resolution, which the exec-done wake already covers.
func (c *Core) dispatchWouldInsert() bool {
	if len(c.fetchBuf) == 0 || c.haltSeen {
		return false
	}
	fi := c.fetchBuf[0]
	op := fi.inst.Op
	slots := 1
	if (c.sch.FenceBeforeLoads() && op == isa.OpLoad) ||
		(c.sch.FenceAfterBranches() && isBranchNeedingFence(op)) {
		slots = 2
	}
	if c.robCnt+slots > len(c.rob) {
		return false
	}
	if (op == isa.OpLoad || op == isa.OpPrefetch) && c.lqCnt >= len(c.lq) {
		return false
	}
	if op == isa.OpStore && c.sqCnt >= len(c.sq) {
		return false
	}
	return true
}
