package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/memsys"
	"invisispec/internal/stats"
)

func TestOverlapsAndContains(t *testing.T) {
	cases := []struct {
		a1   uint64
		s1   uint8
		a2   uint64
		s2   uint8
		over bool
		cont bool
	}{
		{0, 8, 0, 8, true, true},
		{0, 8, 4, 4, true, true},
		{0, 8, 4, 8, true, false},
		{0, 8, 8, 8, false, false},
		{8, 8, 0, 8, false, false},
		{0, 4, 2, 1, true, true},
		{2, 1, 0, 4, true, false},
		{100, 2, 101, 1, true, true},
	}
	for _, c := range cases {
		if got := overlaps(c.a1, c.s1, c.a2, c.s2); got != c.over {
			t.Errorf("overlaps(%d,%d,%d,%d) = %v", c.a1, c.s1, c.a2, c.s2, got)
		}
		if got := contains(c.a1, c.s1, c.a2, c.s2); got != c.cont {
			t.Errorf("contains(%d,%d,%d,%d) = %v", c.a1, c.s1, c.a2, c.s2, got)
		}
	}
}

func TestOverlapContainQuickProperties(t *testing.T) {
	f := func(a1, a2 uint16, s1Sel, s2Sel uint8) bool {
		sizes := []uint8{1, 2, 4, 8}
		s1 := sizes[s1Sel%4]
		s2 := sizes[s2Sel%4]
		A1, A2 := uint64(a1), uint64(a2)
		over := overlaps(A1, s1, A2, s2)
		cont := contains(A1, s1, A2, s2)
		// Containment implies overlap.
		if cont && !over {
			return false
		}
		// Overlap is symmetric.
		if over != overlaps(A2, s2, A1, s1) {
			return false
		}
		// Reference check against explicit byte sets.
		ref := false
		for b := A2; b < A2+uint64(s2); b++ {
			if b >= A1 && b < A1+uint64(s1) {
				ref = true
			}
		}
		return over == ref
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func newTestCore(t *testing.T, d config.Defense) *Core {
	t.Helper()
	run := config.Run{Machine: config.Default(1), Defense: d, Consistency: config.TSO}
	st := stats.NewMachine(1)
	prog := isa.NewBuilder("t").Nop().Halt().MustBuild()
	mem := isa.NewMemory()
	hier := memsys.New(run.Machine, st)
	return New(0, run, prog, mem, hier, &st.Cores[0])
}

func TestRobIndexMathWrapsCorrectly(t *testing.T) {
	c := newTestCore(t, config.Base)
	c.robHead = len(c.rob) - 2
	c.robCnt = 5
	for i := 0; i < c.robCnt; i++ {
		phys := c.robPhys(i)
		if got := c.robLogical(phys); got != i {
			t.Fatalf("robLogical(robPhys(%d)) = %d", i, got)
		}
	}
	if c.robPhys(2) != 0 {
		t.Fatalf("expected wrap: robPhys(2) = %d", c.robPhys(2))
	}
}

func TestSquashRebuildsRAT(t *testing.T) {
	c := newTestCore(t, config.Base)
	// Dispatch three producers of r5 by hand.
	for i := 0; i < 3; i++ {
		c.insertEntry(&fetchedInst{pc: i, inst: isa.Inst{Op: isa.OpLui, Rd: 5, Imm: int64(i)}})
	}
	if c.rat[5] != c.robPhys(2) {
		t.Fatalf("RAT points at %d, want youngest producer %d", c.rat[5], c.robPhys(2))
	}
	// Squash the youngest: RAT must fall back to the middle producer.
	c.squashFromLogical(2, stats.SquashBranch, 0, false)
	if c.rat[5] != c.robPhys(1) {
		t.Fatalf("RAT after squash points at %d, want %d", c.rat[5], c.robPhys(1))
	}
	// Squash everything: RAT must clear.
	c.squashFromLogical(0, stats.SquashBranch, 0, false)
	if c.rat[5] != -1 {
		t.Fatalf("RAT after full squash = %d, want -1", c.rat[5])
	}
	if c.robCnt != 0 {
		t.Fatalf("robCnt = %d", c.robCnt)
	}
}

func TestSquashFreesLSQEntries(t *testing.T) {
	c := newTestCore(t, config.Base)
	c.insertEntry(&fetchedInst{pc: 0, inst: isa.Inst{Op: isa.OpLoad, Rd: 1, Rs1: 2, Size: 8}})
	c.insertEntry(&fetchedInst{pc: 1, inst: isa.Inst{Op: isa.OpStore, Rs1: 2, Rs2: 3, Size: 8}})
	c.insertEntry(&fetchedInst{pc: 2, inst: isa.Inst{Op: isa.OpLoad, Rd: 4, Rs1: 2, Size: 8}})
	if c.lqCnt != 2 || c.sqCnt != 1 {
		t.Fatalf("lq=%d sq=%d", c.lqCnt, c.sqCnt)
	}
	c.squashFromLogical(1, stats.SquashBranch, 0, false)
	if c.lqCnt != 1 || c.sqCnt != 0 {
		t.Fatalf("after squash lq=%d sq=%d, want 1/0", c.lqCnt, c.sqCnt)
	}
	c.squashFromLogical(0, stats.SquashBranch, 0, false)
	if c.lqCnt != 0 {
		t.Fatalf("after full squash lq=%d", c.lqCnt)
	}
}

func TestSquashBumpsEpoch(t *testing.T) {
	c := newTestCore(t, config.ISFuture)
	e0 := c.epoch
	c.squashFromLogical(0, stats.SquashInterrupt, 0, false)
	if c.epoch != e0+1 {
		t.Fatalf("epoch %d, want %d", c.epoch, e0+1)
	}
}

func TestSBMatchesMemoryMaskSemantics(t *testing.T) {
	c := newTestCore(t, config.ISFuture)
	e := &lqEntry{addr: 0x1000, size: 4}
	// Load consumed bytes 0..3; byte 1 came from store forwarding.
	e.readMask = 0b1111
	e.fwdMask = 0b0010
	e.sbData[0] = 0xAA
	e.sbData[1] = 0xFF // forwarded: memory may differ
	e.sbData[2] = 0xCC
	e.sbData[3] = 0xDD
	c.mem.SetBytes(0x1000, []byte{0xAA, 0x00, 0xCC, 0xDD})
	if !c.sbMatchesMemory(e) {
		t.Fatal("forwarded byte must be excluded from validation")
	}
	c.mem.SetByte(0x1002, 0x99)
	if c.sbMatchesMemory(e) {
		t.Fatal("memory change in a consumed byte must fail validation")
	}
	c.mem.SetByte(0x1002, 0xCC)
	c.mem.SetByte(0x1010, 0x42) // outside the mask: irrelevant
	if !c.sbMatchesMemory(e) {
		t.Fatal("bytes outside the read mask must not matter")
	}
}

func TestLoadValueExtraction(t *testing.T) {
	e := &lqEntry{addr: 0x1008 + 3, size: 4}
	for i := range e.sbData {
		e.sbData[i] = byte(i)
	}
	// Line base is 0x1000; offset is 11.
	want := uint64(11) | 12<<8 | 13<<16 | 14<<24
	if got := e.loadValue(); got != want {
		t.Fatalf("loadValue = %#x, want %#x", got, want)
	}
}

func TestFenceLikeClassification(t *testing.T) {
	for _, tc := range []struct {
		op   isa.Op
		want bool
	}{
		{isa.OpFence, true}, {isa.OpAcquire, true}, {isa.OpRelease, true},
		{isa.OpRMW, false}, {isa.OpAdd, false}, {isa.OpLoad, false},
	} {
		e := &robEntry{inst: isa.Inst{Op: tc.op}}
		if got := isFenceLike(e); got != tc.want {
			t.Errorf("isFenceLike(%v) = %v", tc.op, got)
		}
	}
}

// TestSquashRestoresBpredFromFetchBuf regresses the RAS/GHR leak on
// load-initiated squashes: when no squashed ROB entry carries a predictor
// snapshot but instructions still in the fetch buffer already speculated
// through the predictor (calls pushed the RAS), the squash must rewind to
// the fetch buffer's oldest snapshot instead of leaving the wrong-path
// pushes live.
func TestSquashRestoresBpredFromFetchBuf(t *testing.T) {
	c := newTestCore(t, config.Base)
	// Committed history: one real call on the stack.
	c.bp.PushRAS(42)
	// A snapshot-less ROB entry (say, the faulting load itself).
	c.insertEntry(&fetchedInst{pc: 0, inst: isa.Inst{Op: isa.OpLoad, Rd: 1, Rs1: 2, Size: 8, Priv: true}})
	// Fetch ran ahead: a call in the fetch buffer snapshotted the predictor
	// and then pushed its return address, exactly as ifetchDone does.
	snap := c.bp.Snapshot()
	c.fetchBuf = append(c.fetchBuf, fetchedInst{
		pc: 1, inst: isa.Inst{Op: isa.OpCall, Rd: 3, Target: 9}, hasSnap: true, snap: snap,
	})
	c.bp.PushRAS(2)
	c.bp.PushRAS(777) // deeper wrong-path speculation after the snapshot

	c.squashFromLogical(0, stats.SquashException, 0, true)

	if got := c.bp.PopRAS(); got != 42 {
		t.Fatalf("RAS top after squash = %d, want committed 42 (wrong-path pushes leaked)", got)
	}
}

// TestSquashPrefersRobSnapshotOverFetchBuf: when a squashed ROB entry does
// carry a snapshot, it is older than anything in the fetch buffer and must
// win.
func TestSquashPrefersRobSnapshotOverFetchBuf(t *testing.T) {
	c := newTestCore(t, config.Base)
	c.bp.PushRAS(42)
	robSnap := c.bp.Snapshot()
	c.bp.PushRAS(100) // speculation by the ROB-resident branch
	c.insertEntry(&fetchedInst{pc: 0, inst: isa.Inst{Op: isa.OpCall, Rd: 3, Target: 5},
		predTaken: true, predTarget: 5})
	c.robAt(0).hasSnap = true
	c.robAt(0).snap = robSnap
	fbSnap := c.bp.Snapshot()
	c.fetchBuf = append(c.fetchBuf, fetchedInst{
		pc: 5, inst: isa.Inst{Op: isa.OpCall, Rd: 4, Target: 9}, hasSnap: true, snap: fbSnap,
	})
	c.bp.PushRAS(6)

	c.squashFromLogical(0, stats.SquashException, 0, true)

	if got := c.bp.PopRAS(); got != 42 {
		t.Fatalf("RAS top after squash = %d, want 42 from the ROB snapshot", got)
	}
}

// smallRun returns a one-core run whose ROB, LQ and SQ are small enough for
// a short program to recycle every slot many times.
func smallRun(d config.Defense, m config.Consistency, rob, lq, sq int) config.Run {
	mc := config.Default(1)
	mc.ROBEntries, mc.LQEntries, mc.SQEntries = rob, lq, sq
	return config.Run{Machine: mc, Defense: d, Consistency: m}
}

// runDirected runs prog alone on a one-core machine one cycle at a time,
// auditing StructuralCheck after every tick and handing the core to observe,
// until the core halts and drains. The final registers and the bytes of
// every data chunk must equal the golden interpreter's.
func runDirected(t *testing.T, run config.Run, prog *isa.Program, observe func(*Core)) {
	t.Helper()
	st := stats.NewMachine(1)
	mem := isa.NewMemory()
	mem.LoadProgramImage(prog)
	hier := memsys.New(run.Machine, st)
	c := New(0, run, prog, mem, hier, &st.Cores[0])
	for now := uint64(1); c.PendingWork(); now++ {
		if now > 2_000_000 {
			t.Fatalf("%v: no halt after %d cycles\n%s", run, now, DebugDump(c))
		}
		hier.Tick(now)
		c.Tick(now)
		if err := c.StructuralCheck(); err != nil {
			t.Fatalf("%v: cycle %d: %v\n%s", run, now, err, DebugDump(c))
		}
		if observe != nil {
			observe(c)
		}
	}
	ref := isa.NewInterp(prog)
	if err := ref.Run(1_000_000); err != nil {
		t.Fatalf("interp: %v", err)
	}
	for r := range c.regs {
		if c.regs[r] != ref.Regs[r] {
			t.Fatalf("%v: r%d = %#x, interpreter has %#x", run, r, c.regs[r], ref.Regs[r])
		}
	}
	for _, ch := range prog.InitMem {
		if got, want := mem.ReadBytes(ch.Addr, len(ch.Data)), ref.Mem.ReadBytes(ch.Addr, len(ch.Data)); string(got) != string(want) {
			t.Fatalf("%v: memory at %#x = %x, interpreter has %x", run, ch.Addr, got, want)
		}
	}
}

// TestRetiredProducerSlotRecycled drives the retVal path: a load consumes r5
// while an older incomplete atomic holds it back. Its producer retires, and
// the producer's ROB slot is refilled by a wrong-path instruction that also
// writes r5, squashed by a mispredicted branch, and refilled again by the
// correct path, all before the load issues. It must still read the retired
// producer's value (retVal), never a later occupant's destVal.
func TestRetiredProducerSlotRecycled(t *testing.T) {
	prog := isa.NewBuilder("recycle").
		DataU64(0x9000, 0xfeedface).
		DataU64(0x9100, 0x5ca1ab1e).
		Li(5, 0x9000). // P: producer of r5
		Li(1, 0x8000).
		Li(2, 1).
		Ld(8, 7, 1, 0x40). // cold miss: r7 = 0 arrives late
		RMW(8, 3, 1, 2).   // blocks younger memory ops until it performs
		Label("consumer").
		Ld(8, 6, 5, 0).    // C: reads r5 through a rename reference to P
		Beq(7, 0, "skip"). // taken; a cold predictor says not-taken
		Li(5, 0x9100).     // wrong path: refills P's slot with another r5
		AddI(9, 9, 1).
		AddI(9, 9, 1).
		AddI(9, 9, 1).
		Label("skip").
		Li(10, 0xd00d). // correct path: refills P's slot again
		AddI(11, 10, 1).
		AddI(12, 11, 1).
		AddI(13, 12, 1).
		Ld(8, 14, 5, 0x100). // reads the array through the architectural r5
		Halt().
		MustBuild()
	consumerPC := -1
	for pc, in := range prog.Insts {
		if in.Op == isa.OpLoad && in.Rd == 6 {
			consumerPC = pc
		}
	}
	for _, run := range []config.Run{
		smallRun(config.Base, config.TSO, 8, 8, 8),
		smallRun(config.Base, config.RC, 8, 8, 8),
	} {
		t.Run(run.String(), func(t *testing.T) {
			// Phases while the consumer waits on its reference (slot, seq):
			// 1 = slot refilled, 2 = refill squashed, 3 = refilled again.
			phase := 0
			var firstRefill uint64
			runDirected(t, run, prog, func(c *Core) {
				var cons *robEntry
				for i := 0; i < c.robCnt; i++ {
					if e := c.robAt(i); e.pc == consumerPC && e.st == stDispatched && e.src1Rob != noDep {
						cons = e
					}
				}
				if cons == nil {
					return
				}
				slot := &c.rob[cons.src1Rob]
				switch {
				case phase == 0 && slot.valid && slot.seq != cons.src1Seq:
					phase, firstRefill = 1, slot.seq
				case phase == 1 && !slot.valid:
					phase = 2
				case phase == 2 && slot.valid && slot.seq > firstRefill:
					phase = 3
				}
			})
			if phase != 3 {
				t.Fatalf("scenario not reached: phase %d (want producer slot refilled, squashed, refilled)", phase)
			}
		})
	}
	// The same program under every defense and model: only the golden
	// comparison applies, the recycling scenario depends on the timing.
	for _, d := range config.AllDefenses() {
		for _, m := range []config.Consistency{config.TSO, config.RC} {
			runDirected(t, smallRun(d, m, 8, 8, 8), prog, nil)
		}
	}
}

// TestQueueWindowsWrap runs a load/store loop on a machine whose ROB, LQ and
// SQ sizes are not powers of two, and requires each window [head, head+cnt)
// to have wrapped across physical index len-1 while the structural audit
// and the golden comparison hold.
func TestQueueWindowsWrap(t *testing.T) {
	b := isa.NewBuilder("wrap")
	for i := uint64(0); i < 64; i++ {
		b.DataU64(0xa000+8*i, i*i)
	}
	prog := b.
		Li(1, 0xa000).
		Li(9, 30).
		Label("loop").
		Ld(8, 2, 1, 0).
		AddI(2, 2, 3).
		St(8, 1, 0, 2).
		Ld(8, 3, 1, 8).
		Add(4, 4, 3).
		St(8, 1, 8, 4).
		Ld(8, 5, 1, 0).
		Xor(6, 6, 5).
		AddI(1, 1, 16).
		AddI(9, 9, -1).
		Bne(9, 0, "loop").
		Halt().
		MustBuild()
	for _, d := range config.AllDefenses() {
		for _, m := range []config.Consistency{config.TSO, config.RC} {
			run := smallRun(d, m, 13, 5, 3)
			var robWrap, lqWrap, sqWrap bool
			runDirected(t, run, prog, func(c *Core) {
				robWrap = robWrap || c.robHead+c.robCnt > len(c.rob)
				lqWrap = lqWrap || c.lqHead+c.lqCnt > len(c.lq)
				sqWrap = sqWrap || c.sqHead+c.sqCnt > len(c.sq)
			})
			if !robWrap || !lqWrap || !sqWrap {
				t.Fatalf("%v: windows never wrapped: rob=%v lq=%v sq=%v", run, robWrap, lqWrap, sqWrap)
			}
		}
	}
}

// everyRun runs prog under every registered defense and both consistency
// models on the default one-core machine, with the golden comparison and
// the per-tick structural audit of runDirected. observe sees every tick of
// every run; the scenario tests below record which runs reached them.
func everyRun(t *testing.T, prog *isa.Program, observe func(run config.Run, c *Core)) {
	t.Helper()
	for _, run := range everyConfig() {
		runDirected(t, run, prog, func(c *Core) { observe(run, c) })
	}
}

func everyConfig() []config.Run {
	var runs []config.Run
	for _, d := range config.AllDefenses() {
		for _, m := range []config.Consistency{config.TSO, config.RC} {
			runs = append(runs, config.Run{Machine: config.Default(1), Defense: d, Consistency: m})
		}
	}
	return runs
}

// TestFenceCompletesFromDispatched: under RC an acquire completes as soon as
// every older load has performed, so updateFenceCompletion completes one
// dispatched behind a long divide at the start of the next tick, before
// issue ever selects it. complete must drop it from the ready set (the
// per-tick audit recomputes the set).
func TestFenceCompletesFromDispatched(t *testing.T) {
	prog := isa.NewBuilder("fence-from-dispatched").
		Li(1, 1000).
		Li(2, 7).
		Div(3, 1, 2). // holds retirement while the acquire completes
		Acquire().
		AddI(4, 3, 1).
		Release().
		AddI(5, 4, 1).
		Halt().
		MustBuild()
	reached := map[config.Run]bool{}
	dispatched := map[uint64]bool{} // fence-like seqs dispatched after the previous tick
	everyRun(t, prog, func(run config.Run, c *Core) {
		now := map[uint64]bool{}
		for i := 0; i < c.robCnt; i++ {
			e := c.robAt(i)
			if !isFenceLike(e) {
				continue
			}
			switch {
			case e.st == stDispatched:
				now[e.seq] = true
			case e.st == stCompleted && dispatched[e.seq]:
				// Issue moves a fence to stWaitMem, which completes a tick
				// later at the earliest: this one skipped issue.
				reached[run] = true
			}
		}
		dispatched = now
	})
	for _, run := range []config.Run{
		{Machine: config.Default(1), Defense: config.Base, Consistency: config.RC},
		{Machine: config.Default(1), Defense: config.ISFuture, Consistency: config.RC},
	} {
		if !reached[run] {
			t.Errorf("%v: no fence completed straight from stDispatched", run)
		}
	}
}

// TestBlockedSyntheticFenceDoesNotBlock: a synthetic (defense) fence that
// issue skips because an older incomplete atomic or real fence blocks
// memory operations and fences must not itself block younger entries, so
// an independent ALU op behind it still issues while both stay incomplete.
func TestBlockedSyntheticFenceDoesNotBlock(t *testing.T) {
	prog := isa.NewBuilder("blocked-fence").
		DataU64(0x9000, 5, 6).
		Li(1, 0x8000).
		Li(2, 1).
		Li(5, 0x9000).
		Ld(8, 7, 1, 0x40). // cold miss: the atomic waits behind it
		RMW(8, 3, 5, 2).   // incomplete atomic
		Ld(8, 6, 5, 0).    // Fe-Fu puts a synthetic fence before it
		AddI(9, 9, 1).     // must issue past the blocked synthetic fence
		Ld(8, 4, 1, 0x80). // cold miss: the fence waits behind it
		Fence().           // incomplete real fence
		Ld(8, 6, 5, 8).
		AddI(10, 10, 1).
		Halt().
		MustBuild()
	viaRMW := map[config.Run]bool{}
	viaFence := map[config.Run]bool{}
	everyRun(t, prog, func(run config.Run, c *Core) {
		rmw, fence := false, false // incomplete real barriers older than i
		for i := 0; i < c.robCnt; i++ {
			e := c.robAt(i)
			switch {
			case e.inst.Op == isa.OpRMW && e.st != stCompleted:
				rmw = true
			case e.inst.Op == isa.OpFence && !e.synthetic && !e.fenceDone:
				fence = true
			case e.synthetic && e.st == stDispatched && rmw != fence:
				for k := i + 1; k < c.robCnt; k++ {
					if y := c.robAt(k); y.inst.Op == isa.OpAddI && y.st != stDispatched {
						viaRMW[run] = viaRMW[run] || rmw
						viaFence[run] = viaFence[run] || fence
					}
				}
			}
		}
	})
	for _, m := range []config.Consistency{config.TSO, config.RC} {
		run := config.Run{Machine: config.Default(1), Defense: config.FenceFuture, Consistency: m}
		if !viaRMW[run] || !viaFence[run] {
			t.Errorf("%v: younger ALU op never issued past a blocked synthetic fence (behind atomic %v, behind fence %v)",
				run, viaRMW[run], viaFence[run])
		}
	}
}

// TestSameTickWakeup: a dependent ALU chain issues back to back. The
// consumer is selected in the very tick completeExec completes its
// producer, so the wakeup must be visible to that tick's issue walk.
func TestSameTickWakeup(t *testing.T) {
	prog := isa.NewBuilder("same-tick").
		Li(1, 3).
		AddI(2, 1, 1).
		Xor(3, 2, 1).
		AddI(4, 3, 1).
		Mul(5, 4, 4).
		AddI(6, 5, 1).
		Halt().
		MustBuild()
	reached := map[config.Run]bool{}
	everyRun(t, prog, func(run config.Run, c *Core) {
		for i := 0; i+1 < c.robCnt; i++ {
			p, q := c.robAt(i), c.robAt(i+1)
			if p.inst.Op.HasDest() && q.inst.Rs1 == p.inst.Rd &&
				p.st == stCompleted && p.execDoneAt == c.now &&
				q.st == stExecuting && q.execDoneAt > c.now && q.execDoneAt-c.now == uint64(c.cfg.LatALU) {
				reached[run] = true
			}
		}
	})
	for _, run := range everyConfig() {
		if !reached[run] {
			t.Errorf("%v: no consumer issued in its producer's completion tick", run)
		}
	}
}

// TestStaleWakeupAfterSlotReuse: a wrong-path consumer registers on a load
// still waiting on a cold miss, is squashed by a mispredicted branch, and
// its slot is refilled by a correct-path load that waits on a second load,
// which in turn waits on the first. When the first load completes, its
// waiter set still names the reused slot; the wakeup must re-check the new
// occupant and leave it out of the ready set (the per-tick audit
// recomputes the set).
func TestStaleWakeupAfterSlotReuse(t *testing.T) {
	prog := isa.NewBuilder("stale-wakeup").
		DataU64(0x9000, 0x1234).
		Li(1, 0x9000).
		Li(2, 4).
		Ld(8, 7, 1, 0).      // P: cold miss
		Ld(8, 11, 7, 0x200). // Q: issues once P completes
		Beq(2, 2, "ok").     // taken; a cold predictor says not-taken
		AddI(8, 7, 1).       // wrong path: registers on P
		AddI(8, 8, 1).
		Label("ok").
		Ld(8, 10, 11, 0). // refills the squashed consumer's slot, waits on Q
		AddI(12, 7, 2).   // a real consumer of P
		Halt().
		MustBuild()
	type stale struct {
		slot, occupant int
		seq, occSeq    uint64
	}
	found := map[config.Run]stale{}
	reached := map[config.Run]bool{}
	everyRun(t, prog, func(run config.Run, c *Core) {
		if r, ok := found[run]; ok {
			p, o := &c.rob[r.slot], &c.rob[r.occupant]
			if p.seq == r.seq && p.st == stCompleted && o.valid && o.seq == r.occSeq && o.st == stDispatched {
				reached[run] = true // P completed; the occupant still waits
			}
			return
		}
		for i := 0; i < c.robCnt; i++ {
			p := c.robAt(i)
			if p.inst.Op != isa.OpLoad || p.st == stCompleted {
				continue
			}
			slot := c.robPhys(i)
			for q := range c.rob {
				o := &c.rob[q]
				names := o.src1Rob == slot && o.src1Seq == p.seq || o.src2Rob == slot && o.src2Seq == p.seq
				if c.waitersOf(slot).has(q) && o.valid && !names && o.st == stDispatched && !c.ready.has(q) {
					found[run] = stale{slot, q, p.seq, o.seq}
				}
			}
		}
	})
	for _, m := range []config.Consistency{config.TSO, config.RC} {
		run := config.Run{Machine: config.Default(1), Defense: config.Base, Consistency: m}
		if !reached[run] {
			t.Errorf("%v: no producer completed while a stale registration named a waiting occupant", run)
		}
	}
}
