// Package memsys assembles the simulated memory hierarchy: per-core private
// L1 instruction and data caches, a banked, inclusive, directory-based MESI
// shared L2/LLC, the mesh interconnect, a DRAM channel, and InvisiSpec's
// per-core LLC speculative buffers (LLC-SBs).
//
// The hierarchy is a timing and coherence-state model only: architectural
// values live in the machine's functional memory (internal/isa.Memory); the
// core reads and writes values at the instants this package delivers
// responses. Internally the hierarchy is event-driven — each transaction
// computes its timeline from NoC, bank, and DRAM latencies and schedules
// completion callbacks — while presenting a cycle-stepped Tick interface to
// the simulation engine.
//
// The InvisiSpec additions (paper §V-F, §VI-C, §VI-E1):
//   - SpecRead requests implement the Spec-GetS transaction: they probe
//     caches without updating replacement or coherence state, are never
//     installed anywhere, bounce-and-retry when they race with an ownership
//     transfer, and on an LLC miss fill the requesting core's LLC-SB on the
//     data's way back from memory.
//   - Validate and Expose requests are ordinary GetS transactions except
//     that on an LLC miss they first consult the requester's LLC-SB
//     (address + epoch match) to avoid a second main-memory access.
//   - Any non-speculative access that misses in the LLC invalidates the
//     line from every core's LLC-SB.
package memsys

import (
	"container/heap"
	"fmt"

	"invisispec/internal/config"
	"invisispec/internal/noc"
	"invisispec/internal/stats"
)

// ReqType classifies core-to-hierarchy requests.
type ReqType uint8

// Request types.
const (
	ReadShared ReqType = iota // safe load: coherent GetS, installs in L1
	ReadExcl                  // store drain / RMW: GetX, installs in M
	SpecRead                  // USL: Spec-GetS, invisible
	Validate                  // InvisiSpec validation: GetS + LLC-SB
	Expose                    // InvisiSpec exposure: GetS + LLC-SB
	IFetch                    // instruction fetch
	// IFetchSpec is an invisible instruction fetch (ProtectICache,
	// paper footnote 2): data is returned but no cache state changes.
	IFetchSpec
)

// String names the request type.
func (t ReqType) String() string {
	switch t {
	case ReadShared:
		return "read"
	case ReadExcl:
		return "read-excl"
	case SpecRead:
		return "spec-read"
	case Validate:
		return "validate"
	case Expose:
		return "expose"
	case IFetch:
		return "ifetch"
	case IFetchSpec:
		return "ifetch-spec"
	}
	return fmt.Sprintf("ReqType(%d)", uint8(t))
}

func (t ReqType) trafficClass() stats.TrafficClass {
	switch t {
	case SpecRead:
		return stats.TrafficSpecLoad
	case Validate, Expose:
		return stats.TrafficValExp
	case IFetch, IFetchSpec:
		return stats.TrafficFetch
	}
	return stats.TrafficNormal
}

// Request is one core-originated memory transaction.
type Request struct {
	Type ReqType
	Core int
	Addr uint64
	// Token is echoed in the Response; the core uses it to match responses
	// to load/store queue entries and to discard stale (squashed) replies.
	Token uint64
	// LQIdx indexes the core's LLC-SB (1:1 with load-queue entries); used by
	// SpecRead fills and Validate/Expose lookups.
	LQIdx int
	// Epoch is the core's squash epoch (§VI-C).
	Epoch uint64
}

// Response reports a completed transaction back to the core.
type Response struct {
	Token uint64
	Addr  uint64
	Type  ReqType
	// L1Hit: the request was satisfied by the local L1 (for Table VI's
	// validation-hit breakdown).
	L1Hit bool
	// FromLLCSB: a Validate/Expose was served by the LLC-SB.
	FromLLCSB bool
	// Bounced: a Spec-GetS raced with an ownership transfer and was
	// returned unserved (§VI-E1); the core re-issues it if the USL is
	// still alive (squashed USLs simply drop the bounce).
	Bounced bool
}

// Client is the core-side interface the hierarchy calls back into.
type Client interface {
	// Deliver hands a completed transaction to the core at cycle now.
	Deliver(now uint64, resp Response)
	// OnInvalidate reports that the coherence protocol invalidated lineNum
	// from this core's L1 (the trigger for consistency squashes and
	// InvisiSpec early squashes).
	OnInvalidate(now uint64, lineNum uint64)
	// OnL1Evict reports that lineNum was evicted from this core's L1 by a
	// replacement (conventional cores squash performed loads on this too).
	OnL1Evict(now uint64, lineNum uint64)
}

// FaultInjector perturbs the hierarchy's timing deterministically (see
// internal/faultinject). Both hooks receive the nominal completion cycle and
// return the (possibly delayed) one; they must never return a cycle before
// the nominal one, so perturbation can stretch but never reorder a
// transaction's internal timeline.
type FaultInjector interface {
	// NoCDeliver perturbs a mesh message's delivery cycle (extra latency,
	// or a modelled drop-and-retransmit with capped backoff).
	NoCDeliver(now, deliver uint64) uint64
	// DRAMReady perturbs a DRAM access's data-ready cycle.
	DRAMReady(now, ready uint64) uint64
}

// Hierarchy is the whole memory system.
type Hierarchy struct {
	cfg  config.Machine
	st   *stats.Machine
	mesh *meshIface
	noc  *noc.Mesh
	l1d  []*l1
	l1i  []*l1
	bank []*bank
	sb   []*llcSB

	clients []Client

	now    uint64
	events eventHeap
	seq    uint64
	free   []*event // events that have run, reused by push

	// Event conservation: every at() increments scheduled, every executed
	// callback increments run, so scheduled == run + len(events) always.
	eventsScheduled uint64
	eventsRun       uint64

	// recallPending counts in-flight inclusive-LLC recall invalidations per
	// line: the window where the LLC has already dropped a victim but the
	// L1 copies are still awaiting their invalidation events. The coherence
	// invariant checker must exempt these lines from inclusivity checks.
	recallPending map[uint64]int

	fault FaultInjector

	lineShift uint
}

// SetFaultInjector installs (or, with nil, removes) a deterministic timing
// perturbator. Call before the first Tick.
func (h *Hierarchy) SetFaultInjector(f FaultInjector) { h.fault = f }

type meshIface struct {
	send func(now uint64, src, dst, bytes int, class stats.TrafficClass) uint64
	dram *dramIface
}

type dramIface struct {
	read  func(now uint64, bytes int) uint64
	write func(now uint64, bytes int) uint64
}

// New assembles the hierarchy for the given machine.
func New(cfg config.Machine, st *stats.Machine) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:           cfg,
		st:            st,
		clients:       make([]Client, cfg.Cores),
		recallPending: make(map[uint64]int),
		lineShift:     log2(cfg.LineSize),
	}
	h.buildComponents()
	return h
}

func log2(v int) uint {
	var s uint
	for 1<<s < v {
		s++
	}
	return s
}

// LineOf returns the line number of a byte address.
func (h *Hierarchy) LineOf(addr uint64) uint64 { return addr >> h.lineShift }

// homeBank returns the LLC bank index owning a line.
func (h *Hierarchy) homeBank(lineNum uint64) int { return int(lineNum) % len(h.bank) }

// Connect registers the client for a core. It must be called for every core
// before the first Tick.
func (h *Hierarchy) Connect(core int, c Client) { h.clients[core] = c }

// Now returns the hierarchy's current cycle.
func (h *Hierarchy) Now() uint64 { return h.now }

// Tick advances the hierarchy to cycle now, running every event scheduled at
// or before it, and resets per-cycle port budgets.
func (h *Hierarchy) Tick(now uint64) {
	h.now = now
	for len(h.events) > 0 && h.events[0].cycle <= now {
		ev := heap.Pop(&h.events).(*event)
		h.eventsRun++
		if ev.fn != nil {
			ev.fn()
		} else {
			h.clients[ev.core].Deliver(h.now, ev.resp)
		}
		*ev = event{}
		h.free = append(h.free, ev)
	}
	for _, c := range h.l1d {
		c.portsUsed = 0
	}
	for _, c := range h.l1i {
		c.portsUsed = 0
	}
}

// at schedules fn to run at the given cycle (clamped to the next tick if in
// the past). Events at the same cycle run in scheduling order.
func (h *Hierarchy) at(cycle uint64, fn func()) { h.push(cycle).fn = fn }

// deliverAt schedules resp's delivery to core's client at cycle, as at
// does, without a closure: every L1 hit schedules one.
func (h *Hierarchy) deliverAt(cycle uint64, core int, resp Response) {
	ev := h.push(cycle)
	ev.core, ev.resp = core, resp
}

// push queues a blank event at cycle, clamped to the next tick if in the
// past, reusing one that has run when it can.
func (h *Hierarchy) push(cycle uint64) *event {
	if cycle <= h.now {
		cycle = h.now + 1
	}
	h.seq++
	h.eventsScheduled++
	var ev *event
	if n := len(h.free); n > 0 {
		ev, h.free = h.free[n-1], h.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.cycle, ev.seq = cycle, h.seq
	heap.Push(&h.events, ev)
	return ev
}

// DebugEventHistogram returns pending event counts bucketed by relative due
// time (temporary debugging aid).
func (h *Hierarchy) DebugEventHistogram() map[uint64]int {
	m := map[uint64]int{}
	for _, e := range h.events {
		m[(e.cycle-h.now)/1000]++
	}
	return m
}

// Pending reports whether any event remains in flight (used by the engine
// to drain the system at the end of a run).
func (h *Hierarchy) Pending() bool { return len(h.events) > 0 }

// NextWake implements the engine.Component quiescence contract: the
// hierarchy's next non-trivial work is exactly its event-heap head (at()
// clamps schedules to the future, so post-tick the head is strictly ahead
// of now). With an empty heap the hierarchy is fully drained and only a
// core-side submission can create work.
func (h *Hierarchy) NextWake(now uint64) uint64 {
	if len(h.events) == 0 {
		return ^uint64(0) // engine.Never
	}
	if head := h.events[0].cycle; head > now {
		return head
	}
	return now + 1
}

// event is one scheduled callback: fn, or with fn nil the delivery of resp
// to core's client.
type event struct {
	cycle uint64
	seq   uint64
	fn    func()
	core  int
	resp  Response
}

type eventHeap []*event

func (q eventHeap) Len() int { return len(q) }
func (q eventHeap) Less(i, j int) bool {
	if q[i].cycle != q[j].cycle {
		return q[i].cycle < q[j].cycle
	}
	return q[i].seq < q[j].seq
}
func (q eventHeap) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventHeap) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventHeap) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}
