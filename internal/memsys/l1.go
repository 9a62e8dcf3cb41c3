package memsys

import (
	"invisispec/internal/cache"
	"invisispec/internal/coherence"
	"invisispec/internal/config"
	"invisispec/internal/dram"
	"invisispec/internal/noc"
	"invisispec/internal/stats"
)

// l1 is one private cache (L1D or L1I) plus its miss machinery.
type l1 struct {
	core      int
	arr       *cache.Array
	mshr      *cache.MSHRFile
	mshrKind  map[uint64]coherence.ReqKind // per outstanding line: GetS or GetX
	mshrMeta  map[uint64][]waiter          // responses to build per waiter
	latency   uint64
	ports     int
	portsUsed int
	instr     bool // instruction cache (read-only, no coherence tracking)
	pf        streamDetector
}

// streamDetector is the confidence side of the stream prefetcher: it only
// prefetches when recent visible misses advance through sequential lines,
// and ramps its distance with confidence, so random-access workloads pay
// no useless prefetch bandwidth.
type streamDetector struct {
	lastLine uint64
	conf     int
}

// observe feeds a visible access at lineNum and returns how many lines
// ahead to prefetch (0 = not a stream).
func (s *streamDetector) observe(lineNum uint64, maxDegree int) int {
	switch {
	case lineNum == s.lastLine:
		// repeated trigger on the same line: keep confidence
	case lineNum == s.lastLine+1 || lineNum == s.lastLine+2:
		if s.conf < 4 {
			s.conf++
		}
	default:
		s.conf = 0
	}
	s.lastLine = lineNum
	if s.conf == 0 {
		return 0
	}
	d := s.conf * maxDegree / 4
	if d < 1 {
		d = 1
	}
	return d
}

// waiter is one coalesced request parked on an outstanding miss.
type waiter struct {
	token uint64
	typ   ReqType
}

func newL1(core int, p config.CacheParams, lineSize int, instr bool) *l1 {
	return &l1{
		core:     core,
		arr:      cache.NewArray(p.Sets(lineSize), p.Ways),
		mshr:     cache.NewMSHRFile(p.MSHRs),
		mshrKind: make(map[uint64]coherence.ReqKind),
		mshrMeta: make(map[uint64][]waiter),
		latency:  uint64(p.LatencyRT),
		ports:    p.Ports,
		instr:    instr,
	}
}

func (c *l1) portAvailable() bool { return c.portsUsed < c.ports }

func (c *l1) usePort() { c.portsUsed++ }

func (h *Hierarchy) buildComponents() {
	cfg := h.cfg
	mesh := noc.New(cfg.MeshW, cfg.MeshH, cfg.HopLatency, cfg.LinkBytes, h.st)
	mem := dram.New(cfg.DRAMLatency, cfg.DRAMBandwidth)
	h.noc = mesh
	h.mesh = &meshIface{
		send: func(now uint64, src, dst, bytes int, class stats.TrafficClass) uint64 {
			t := mesh.Send(now, src, dst, bytes, class)
			if h.fault != nil {
				t = h.fault.NoCDeliver(now, t)
			}
			return t
		},
		dram: &dramIface{
			read: func(now uint64, bytes int) uint64 {
				if h.st != nil {
					h.st.DRAMReads++
				}
				t := mem.Read(now, bytes)
				if h.fault != nil {
					t = h.fault.DRAMReady(now, t)
				}
				return t
			},
			write: func(now uint64, bytes int) uint64 {
				if h.st != nil {
					h.st.DRAMWrites++
				}
				t := mem.Write(now, bytes)
				if h.fault != nil {
					t = h.fault.DRAMReady(now, t)
				}
				return t
			},
		},
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1d = append(h.l1d, newL1(i, cfg.L1D, cfg.LineSize, false))
		h.l1i = append(h.l1i, newL1(i, cfg.L1I, cfg.LineSize, true))
		h.bank = append(h.bank, newBank(i, cfg))
		h.sb = append(h.sb, newLLCSB(cfg.LQEntries))
	}
}

// Submit hands a request to the hierarchy at the current cycle. It returns
// false when a structural hazard (cache port or MSHR exhaustion) rejects the
// request; the core must retry on a later cycle.
func (h *Hierarchy) Submit(req Request) bool {
	if req.Type == IFetch {
		return h.submitIFetch(req)
	}
	if req.Type == IFetchSpec {
		return h.submitIFetchSpec(req)
	}
	c := h.l1d[req.Core]
	if !c.portAvailable() {
		return false
	}
	lineNum := h.LineOf(req.Addr)
	switch req.Type {
	case SpecRead:
		return h.submitSpecRead(c, req, lineNum)
	case ReadShared, Validate, Expose:
		return h.submitRead(c, req, lineNum)
	case ReadExcl:
		return h.submitReadExcl(c, req, lineNum)
	}
	panic("memsys: unknown request type")
}

// submitRead handles coherent read-for-share requests (safe loads,
// validations, exposures).
func (h *Hierarchy) submitRead(c *l1, req Request, lineNum uint64) bool {
	if line := c.arr.Lookup(lineNum); line != nil {
		c.usePort()
		c.arr.Touch(lineNum)
		if line.Prefetched {
			// First demand touch of a prefetched line re-arms the tagged
			// next-line prefetcher.
			line.Prefetched = false
			h.triggerPrefetch(c, req.Core, lineNum)
		}
		if h.st != nil {
			h.st.Cores[req.Core].L1DHits++
		}
		resp := Response{Token: req.Token, Addr: req.Addr, Type: req.Type, L1Hit: true}
		h.deliverAt(h.now+c.latency, req.Core, resp)
		return true
	}
	// Miss: coalesce onto an outstanding demand miss if one exists.
	if m := c.mshr.Lookup(lineNum); m != nil {
		c.usePort()
		c.mshrMeta[lineNum] = append(c.mshrMeta[lineNum], waiter{token: req.Token, typ: req.Type})
		if h.st != nil {
			h.st.Cores[req.Core].L1DMisses++
		}
		return true
	}
	if c.mshr.Full() {
		return false
	}
	c.usePort()
	c.mshr.Alloc(lineNum)
	c.mshrKind[lineNum] = coherence.GetS
	c.mshrMeta[lineNum] = []waiter{{token: req.Token, typ: req.Type}}
	if h.st != nil {
		h.st.Cores[req.Core].L1DMisses++
	}
	h.sendToBank(req, lineNum, coherence.GetS)
	h.triggerPrefetch(c, req.Core, lineNum)
	return true
}

// prefetchToken marks hardware-prefetch requests; cores never use it, so
// prefetch fills wake no waiters and deliver no responses.
const prefetchToken = 0

// triggerPrefetch runs the stream prefetcher after a visible demand miss
// or the first touch of a prefetched line. Prefetches are issued only once
// the detector has seen a sequential miss stream, and the distance ramps
// with confidence up to PrefetchDegree. Spec-GetS accesses never reach
// this path: the prefetcher is invisible-speculation-safe (§VI-B).
func (h *Hierarchy) triggerPrefetch(c *l1, core int, lineNum uint64) {
	if !h.cfg.HWPrefetch {
		return
	}
	degree := c.pf.observe(lineNum, h.cfg.PrefetchDegree)
	for d := 1; d <= degree; d++ {
		ln := lineNum + uint64(d)
		if c.arr.Lookup(ln) != nil || c.mshr.Lookup(ln) != nil {
			continue
		}
		if c.mshr.Full() {
			return
		}
		c.mshr.Alloc(ln)
		c.mshrKind[ln] = coherence.GetS
		c.mshrMeta[ln] = nil
		req := Request{Type: ReadShared, Core: core, Addr: ln << h.lineShift, Token: prefetchToken}
		h.sendToBank(req, ln, coherence.GetS)
	}
}

// submitReadExcl handles store drains and atomics.
func (h *Hierarchy) submitReadExcl(c *l1, req Request, lineNum uint64) bool {
	if line := c.arr.Lookup(lineNum); line != nil &&
		coherence.State(line.State) != coherence.Shared {
		// Hit in E or M: silent upgrade to M.
		c.usePort()
		c.arr.Touch(lineNum)
		line.State = uint8(coherence.Modified)
		line.Dirty = true
		if h.st != nil {
			h.st.Cores[req.Core].L1DHits++
		}
		resp := Response{Token: req.Token, Addr: req.Addr, Type: req.Type, L1Hit: true}
		h.deliverAt(h.now+c.latency, req.Core, resp)
		return true
	}
	// Miss or S-state upgrade: needs a GetX at the directory. A GetX cannot
	// coalesce onto an outstanding GetS (it needs ownership): retry later.
	if m := c.mshr.Lookup(lineNum); m != nil {
		if c.mshrKind[lineNum] != coherence.GetX {
			return false
		}
		c.usePort()
		c.mshrMeta[lineNum] = append(c.mshrMeta[lineNum], waiter{token: req.Token, typ: req.Type})
		if h.st != nil {
			h.st.Cores[req.Core].L1DMisses++
		}
		return true
	}
	if c.mshr.Full() {
		return false
	}
	c.usePort()
	c.mshr.Alloc(lineNum)
	c.mshrKind[lineNum] = coherence.GetX
	c.mshrMeta[lineNum] = []waiter{{token: req.Token, typ: req.Type}}
	if h.st != nil {
		h.st.Cores[req.Core].L1DMisses++
	}
	h.sendToBank(req, lineNum, coherence.GetX)
	return true
}

// submitSpecRead handles InvisiSpec Spec-GetS transactions. They never
// change L1 state (not even LRU), never coalesce with demand misses, and are
// not bounded by the demand MSHR file (each in-flight USL has at most one).
func (h *Hierarchy) submitSpecRead(c *l1, req Request, lineNum uint64) bool {
	c.usePort()
	if line := c.arr.Lookup(lineNum); line != nil {
		// Served by the local L1 copy, which remains untouched (§VI-A2).
		resp := Response{Token: req.Token, Addr: req.Addr, Type: req.Type, L1Hit: true}
		h.deliverAt(h.now+c.latency, req.Core, resp)
		return true
	}
	h.sendSpecToBank(req, lineNum)
	return true
}

// submitIFetch handles instruction fetches.
func (h *Hierarchy) submitIFetch(req Request) bool {
	c := h.l1i[req.Core]
	if !c.portAvailable() {
		return false
	}
	lineNum := h.LineOf(req.Addr)
	if c.arr.Lookup(lineNum) != nil {
		c.usePort()
		c.arr.Touch(lineNum)
		resp := Response{Token: req.Token, Addr: req.Addr, Type: IFetch, L1Hit: true}
		h.deliverAt(h.now+c.latency, req.Core, resp)
		return true
	}
	if m := c.mshr.Lookup(lineNum); m != nil {
		c.usePort()
		c.mshrMeta[lineNum] = append(c.mshrMeta[lineNum], waiter{token: req.Token, typ: IFetch})
		return true
	}
	if c.mshr.Full() {
		return false
	}
	c.usePort()
	c.mshr.Alloc(lineNum)
	c.mshrKind[lineNum] = coherence.GetS
	c.mshrMeta[lineNum] = []waiter{{token: req.Token, typ: IFetch}}
	h.sendIFetchToBank(req, lineNum)
	return true
}

// submitIFetchSpec handles invisible instruction fetches (ProtectICache):
// an L1I hit is served without a replacement update; a miss reads through
// the LLC and DRAM without installing anywhere.
func (h *Hierarchy) submitIFetchSpec(req Request) bool {
	c := h.l1i[req.Core]
	if !c.portAvailable() {
		return false
	}
	c.usePort()
	lineNum := h.LineOf(req.Addr)
	if c.arr.Lookup(lineNum) != nil { // no Touch
		resp := Response{Token: req.Token, Addr: req.Addr, Type: req.Type, L1Hit: true}
		h.deliverAt(h.now+c.latency, req.Core, resp)
		return true
	}
	h.sendIFetchSpecToBank(req, lineNum)
	return true
}

// fillL1 installs a granted line into the L1 at the current cycle, issuing
// eviction (Put*) transactions and the core eviction callback for any
// victim, then wakes the coalesced waiters.
func (h *Hierarchy) fillL1(c *l1, req Request, lineNum uint64, grant coherence.State, servedLLCSB bool) {
	_, victim, hadVictim := c.arr.Insert(lineNum)
	line := c.arr.Lookup(lineNum)
	line.State = uint8(grant)
	line.Dirty = grant == coherence.Modified
	line.Prefetched = req.Token == prefetchToken
	if hadVictim && !c.instr {
		h.evictFromL1(c, victim)
	}
	c.mshr.Free(lineNum)
	delete(c.mshrKind, lineNum)
	waiters := c.mshrMeta[lineNum]
	delete(c.mshrMeta, lineNum)
	for _, w := range waiters {
		resp := Response{Token: w.token, Addr: req.Addr, Type: w.typ, FromLLCSB: servedLLCSB}
		h.clients[req.Core].Deliver(h.now, resp)
	}
}

// evictFromL1 handles a replacement victim: notify the core (conventional
// TSO implementations squash performed loads on eviction) and send the
// appropriate Put transaction to keep the directory precise.
func (h *Hierarchy) evictFromL1(c *l1, victim cache.Line) {
	h.clients[c.core].OnL1Evict(h.now, victim.LineNum)
	st := coherence.State(victim.State)
	kind := coherence.PutS
	bytes := h.cfg.CtrlMsgBytes
	if st == coherence.Exclusive || st == coherence.Modified {
		kind = coherence.PutM
		if victim.Dirty {
			bytes = h.cfg.DataMsgBytes
		}
	}
	home := h.homeBank(victim.LineNum)
	arrive := h.mesh.send(h.now, c.core, home, bytes, stats.TrafficWriteback)
	tx := &txn{kind: kind, core: c.core, lineNum: victim.LineNum, dirty: victim.Dirty}
	h.at(arrive, func() { h.bankEnqueue(h.bank[home], tx) })
}

// invalidateL1 drops a line from a core's L1 on a directory invalidation
// and fires the squash callback.
func (h *Hierarchy) invalidateL1(core int, lineNum uint64) {
	if h.l1d[core].arr.Invalidate(lineNum) {
		h.clients[core].OnInvalidate(h.now, lineNum)
	}
}

// downgradeL1 moves an owned line to Shared (GetS forward); clean or dirty,
// the data was written back by the transaction, so the copy becomes clean.
func (h *Hierarchy) downgradeL1(core int, lineNum uint64) {
	if line := h.l1d[core].arr.Lookup(lineNum); line != nil {
		line.State = uint8(coherence.Shared)
		line.Dirty = false
	}
}
