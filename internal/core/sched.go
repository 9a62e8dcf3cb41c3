package core

import (
	"math/bits"

	"invisispec/internal/isa"
)

// This file holds the core's wakeup-driven scheduling state: the issue
// queue the paper's core selects from (Table IV), kept as bitsets over
// physical ROB slots so issue, completeExec and the robWake mirror visit
// only the entries that can matter to them, oldest first.
//
//	ready    stDispatched with both source operands available;
//	barrier  fence-like and not fenceDone, or an atomic not yet completed
//	         (the entries whose presence blocks younger issue);
//	execing  stExecuting (in a functional unit).
//
// A consumer whose producer is still in flight registers on the producer's
// slot at insertEntry (waiters); complete, the one place an entry becomes
// stCompleted, wakes it. Bits outside the ROB window are always clear, and
// StructuralCheck recomputes all three sets from the window (checkMirrors).

// slotSet is a bitset over physical ROB slots.
type slotSet []uint64

func (s slotSet) add(i int)      { s[i>>6] |= 1 << uint(i&63) }
func (s slotSet) remove(i int)   { s[i>>6] &^= 1 << uint(i&63) }
func (s slotSet) has(i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }

// initSched allocates the scheduling sets and the per-slot waiter sets for
// an n-entry ROB in one backing array.
func (c *Core) initSched(n int) {
	w := (n + 63) / 64
	buf := make([]uint64, (3+n)*w)
	c.schedWords = w
	c.ready, c.barrier, c.execing = slotSet(buf[:w:w]), slotSet(buf[w:2*w:2*w]), slotSet(buf[2*w:3*w:3*w])
	c.waiters = buf[3*w:]
}

// waitersOf returns the set of consumer slots registered on producer slot p.
func (c *Core) waitersOf(p int) slotSet {
	w := c.schedWords
	return slotSet(c.waiters[p*w : (p+1)*w : (p+1)*w])
}

// nextIn returns the logical position and physical slot of the oldest
// member of a ∪ b at logical position l or younger (pass one set twice to
// walk it alone); the position is robCnt when there is none. It reads the
// words live, so a member added younger than l during a walk (a same-tick
// wakeup) is found by the walk.
func (c *Core) nextIn(l int, a, b slotSet) (int, int) {
	n := len(c.rob)
	for l < c.robCnt {
		p := ringAdd(c.robHead, l, n)
		w := p >> 6
		if m := (a[w] | b[w]) >> uint(p&63); m != 0 {
			tz := bits.TrailingZeros64(m)
			if l+tz >= c.robCnt {
				break
			}
			return l + tz, p + tz
		}
		// Advance to the next word boundary, or to the ring's physical end.
		step := 64 - p&63
		if p+step > n {
			step = n - p
		}
		l += step
	}
	return c.robCnt, -1
}

// insertSched enters the freshly renamed entry in slot p into the
// scheduling state: its own waiter set starts empty (a squashed previous
// occupant may have left registrations), it registers on each source
// producer still in flight, and it joins ready or barrier as it qualifies.
func (c *Core) insertSched(p int, e *robEntry) {
	clear(c.waitersOf(p))
	ready := e.st == stDispatched
	for _, src := range [2]int{e.src1Rob, e.src2Rob} {
		if src != noDep && c.rob[src].st != stCompleted {
			c.waitersOf(src).add(p)
			ready = false
		}
	}
	if ready {
		c.ready.add(p)
	}
	if isFenceLike(e) && !e.fenceDone || e.inst.Op == isa.OpRMW {
		c.barrier.add(p)
	}
}

// complete marks slot p's result available and wakes the consumers that
// registered on it. A registration can be stale: the consumer may have
// been squashed and its slot refilled since, so each wakeup re-checks that
// the slot holds a dispatched entry whose sources are both available now.
// That predicate is the ready set's definition, so a stale wakeup either
// re-adds an entry already in the set or adds nothing.
func (c *Core) complete(p int) {
	c.rob[p].st = stCompleted
	c.unschedule(p) // ready too: a fence can complete straight from stDispatched
	ws := c.waitersOf(p)
	for w, m := range ws {
		for ; m != 0; m &= m - 1 {
			q := w<<6 + bits.TrailingZeros64(m)
			if cons := &c.rob[q]; cons.valid && c.isReady(cons) {
				c.ready.add(q)
			}
		}
		ws[w] = 0
	}
}

// isReady is the ready set's membership rule for an entry in the window.
func (c *Core) isReady(e *robEntry) bool {
	return e.st == stDispatched && c.srcAvailable(e.src1Rob, e.src1Seq) && c.srcAvailable(e.src2Rob, e.src2Seq)
}

// unschedule drops a slot from every scheduling set (squash, completion).
func (c *Core) unschedule(p int) {
	c.ready.remove(p)
	c.barrier.remove(p)
	c.execing.remove(p)
}

// blocksYounger reports how an entry that issue does not skip blocks the
// entries behind it: an incomplete synthetic (defense) fence blocks all of
// them; an incomplete memory fence or acquire, or an atomic that has not
// completed, blocks younger memory operations and fences. An incomplete
// atomic has fence semantics, and younger loads have no forwarding path
// from it, so letting them read around it would break program order.
func blocksYounger(e *robEntry) (all, mem bool) {
	switch e.inst.Op {
	case isa.OpFence, isa.OpAcquire:
		if !e.fenceDone {
			return e.synthetic, !e.synthetic
		}
	case isa.OpRMW:
		return false, e.st != stCompleted
	}
	return false, false
}
