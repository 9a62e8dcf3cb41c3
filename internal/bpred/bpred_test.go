package bpred

import (
	"math/rand"
	"testing"

	"invisispec/internal/isa"
)

func TestAlwaysTakenBranchLearns(t *testing.T) {
	p := New(DefaultConfig())
	pc := 42
	mispredicts := 0
	for i := 0; i < 100; i++ {
		snap := p.Snapshot()
		pred := p.PredictCond(pc)
		if !pred {
			mispredicts++
			p.Restore(snap)
			p.FixupHistory(true)
		}
		p.TrainCond(pc, true, snap.ghr)
	}
	if mispredicts > 3 {
		t.Fatalf("always-taken branch mispredicted %d/100 times", mispredicts)
	}
	// After warmup the prediction must be stable.
	if !p.PredictCond(pc) {
		t.Fatal("trained always-taken branch predicted not-taken")
	}
}

func TestAlternatingBranchGlobalWins(t *testing.T) {
	// A strict alternation is perfectly predictable from global history.
	p := New(DefaultConfig())
	pc := 7
	late := 0
	for i := 0; i < 400; i++ {
		outcome := i%2 == 0
		snap := p.Snapshot()
		pred := p.PredictCond(pc)
		if pred != outcome {
			if i >= 200 {
				late++
			}
			p.Restore(snap)
			p.FixupHistory(outcome)
		}
		p.TrainCond(pc, outcome, snap.ghr)
	}
	if late > 10 {
		t.Fatalf("alternating branch mispredicted %d/200 times after warmup", late)
	}
}

func TestBTBMissThenHit(t *testing.T) {
	p := New(DefaultConfig())
	if _, ok := p.PredictIndirect(100); ok {
		t.Fatal("cold BTB must miss")
	}
	p.TrainTarget(100, 555)
	tgt, ok := p.PredictIndirect(100)
	if !ok || tgt != 555 {
		t.Fatalf("BTB predicted (%d,%v), want (555,true)", tgt, ok)
	}
	// An aliasing PC (same set) with a different tag must miss.
	alias := 100 + DefaultConfig().BTBEntries
	if _, ok := p.PredictIndirect(alias); ok {
		t.Fatal("aliased BTB entry must not hit")
	}
}

func TestRASLifo(t *testing.T) {
	p := New(DefaultConfig())
	p.PushRAS(10)
	p.PushRAS(20)
	p.PushRAS(30)
	for _, want := range []int{30, 20, 10} {
		if got := p.PopRAS(); got != want {
			t.Fatalf("PopRAS = %d, want %d", got, want)
		}
	}
}

func TestRASOverflowWraps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RASEntries = 4
	p := New(cfg)
	for i := 0; i < 6; i++ {
		p.PushRAS(i)
	}
	// Entries 5,4,3,2 survive; older ones were overwritten.
	for _, want := range []int{5, 4, 3, 2} {
		if got := p.PopRAS(); got != want {
			t.Fatalf("PopRAS = %d, want %d", got, want)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := New(DefaultConfig())
	p.PushRAS(1)
	p.PredictCond(5)
	snap := p.Snapshot()
	p.PushRAS(2)
	p.PushRAS(3)
	p.PredictCond(6)
	p.PredictCond(7)
	p.Restore(snap)
	if got := p.PopRAS(); got != 1 {
		t.Fatalf("restored RAS top = %d, want 1", got)
	}
	if p.ghr != snap.ghr {
		t.Fatalf("restored ghr = %#x, want %#x", p.ghr, snap.ghr)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	p := New(DefaultConfig())
	p.PushRAS(1)
	snap := p.Snapshot()
	p.PushRAS(2) // mutate after snapshot
	p.Restore(snap)
	p.PushRAS(9)
	if got := p.PopRAS(); got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
	if got := p.PopRAS(); got != 1 {
		t.Fatalf("snapshot was aliased: got %d, want 1", got)
	}
}

func TestPredictsFor(t *testing.T) {
	cases := []struct {
		op                        isa.Op
		cond, indirect, call, ret bool
	}{
		{isa.OpBeq, true, false, false, false},
		{isa.OpBge, true, false, false, false},
		{isa.OpJmpI, false, true, false, false},
		{isa.OpCall, false, false, true, false},
		{isa.OpRet, false, false, false, true},
		{isa.OpJmp, false, false, false, false},
		{isa.OpAdd, false, false, false, false},
	}
	for _, c := range cases {
		cond, ind, call, ret := PredictsFor(c.op)
		if cond != c.cond || ind != c.indirect || call != c.call || ret != c.ret {
			t.Errorf("PredictsFor(%v) = %v,%v,%v,%v", c.op, cond, ind, call, ret)
		}
	}
}

func TestRandomOutcomesMispredictHeavily(t *testing.T) {
	// A predictor cannot learn a random sequence; misprediction rate should
	// hover near 50%. This guards against accidental oracle behaviour.
	p := New(DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	pc := 3
	mis := 0
	const n = 2000
	for i := 0; i < n; i++ {
		outcome := rng.Intn(2) == 0
		snap := p.Snapshot()
		pred := p.PredictCond(pc)
		if pred != outcome {
			mis++
			p.Restore(snap)
			p.FixupHistory(outcome)
		}
		p.TrainCond(pc, outcome, snap.ghr)
	}
	rate := float64(mis) / n
	if rate < 0.3 || rate > 0.7 {
		t.Fatalf("random-branch misprediction rate %.2f outside [0.3,0.7]", rate)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero BTB did not panic")
		}
	}()
	New(Config{LocalBits: 4, GlobalBits: 4, ChoiceBits: 4, BTBEntries: 0, RASEntries: 4})
}

// TestRASDeepNestSquashRestore drives the RAS through a speculative CALL/RET
// nest deeper than its 16 entries — wrapping rasTop past the snapshot point —
// then restores and checks the stack predicts exactly as before the wrong
// path: rasTop is back where it was and no stale wrong-path entry survives,
// even for pops that reach entries the wrong path overwrote after wrapping.
func TestRASDeepNestSquashRestore(t *testing.T) {
	p := New(DefaultConfig())
	depth := p.cfg.RASEntries // 16
	// Architecturally committed prefix: half-fill the stack.
	for i := 0; i < depth/2; i++ {
		p.PushRAS(100 + i)
	}
	snap := p.Snapshot()
	wantTop := p.rasTop

	// Wrong path 1: overflow. Push 2.5x the capacity so rasTop wraps twice
	// and every slot — including the committed prefix — is overwritten.
	for i := 0; i < depth*5/2; i++ {
		p.PushRAS(9000 + i)
	}
	p.Restore(snap)
	if p.rasTop != wantTop {
		t.Fatalf("after overflow restore: rasTop = %d, want %d", p.rasTop, wantTop)
	}
	for i := depth/2 - 1; i >= 0; i-- {
		if got := p.PopRAS(); got != 100+i {
			t.Fatalf("after overflow restore: pop %d = %d, want %d", i, got, 100+i)
		}
	}
	p.Restore(snap)

	// Wrong path 2: underflow. Pop far past the live depth so rasTop wraps
	// backwards through stale slots, then push new wrong-path entries.
	for i := 0; i < depth*2; i++ {
		p.PopRAS()
	}
	p.PushRAS(7777)
	p.PushRAS(8888)
	p.Restore(snap)
	if p.rasTop != wantTop {
		t.Fatalf("after underflow restore: rasTop = %d, want %d", p.rasTop, wantTop)
	}
	for i := depth/2 - 1; i >= 0; i-- {
		if got := p.PopRAS(); got != 100+i {
			t.Fatalf("after underflow restore: pop %d = %d, want %d", i, got, 100+i)
		}
	}

	// Interleaved nests: snapshot inside a nest, speculate a deeper nest
	// with returns, restore, and check the outer nest still unwinds.
	p = New(DefaultConfig())
	for i := 0; i < 3; i++ {
		p.PushRAS(10 + i)
	}
	snap = p.Snapshot()
	for i := 0; i < depth+4; i++ { // deeper than capacity
		p.PushRAS(5000 + i)
	}
	for i := 0; i < depth+4; i++ {
		p.PopRAS()
	}
	p.Restore(snap)
	for i := 2; i >= 0; i-- {
		if got := p.PopRAS(); got != 10+i {
			t.Fatalf("nested restore: pop = %d, want %d", got, 10+i)
		}
	}
}

// refRAS is a deep-copy reference model of the predictor's speculative
// state: every snapshot copies the stack, every restore copies it back.
type refRAS struct {
	ghr uint64
	ras []int
	top int
}

func (r *refRAS) clone() refRAS {
	return refRAS{ghr: r.ghr, ras: append([]int(nil), r.ras...), top: r.top}
}

// TestCopyOnWriteRASMatchesDeepCopy drives random push/pop/predict/
// snapshot/restore sequences against the deep-copy reference: every pop
// and every restored state must agree, including restores of old snapshots
// taken before later pushes, and restoring the same snapshot twice.
func TestCopyOnWriteRASMatchesDeepCopy(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.RASEntries = 1 + rng.Intn(8)
		p := New(cfg)
		ref := refRAS{ras: make([]int, cfg.RASEntries)}
		var snaps []State
		var refSnaps []refRAS
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(6); op {
			case 0, 1:
				v := rng.Intn(1 << 20)
				p.PushRAS(v)
				ref.ras[ref.top] = v
				ref.top = (ref.top + 1) % len(ref.ras)
			case 2:
				ref.top = (ref.top - 1 + len(ref.ras)) % len(ref.ras)
				if got, want := p.PopRAS(), ref.ras[ref.top]; got != want {
					t.Fatalf("seed %d step %d: PopRAS = %d, reference %d", seed, step, got, want)
				}
			case 3:
				taken := p.PredictCond(rng.Intn(64))
				ref.ghr <<= 1
				if taken {
					ref.ghr |= 1
				}
			case 4:
				snaps = append(snaps, p.Snapshot())
				refSnaps = append(refSnaps, ref.clone())
			case 5:
				if len(snaps) == 0 {
					continue
				}
				i := rng.Intn(len(snaps))
				p.Restore(snaps[i])
				ref = refSnaps[i].clone()
				if rng.Intn(2) == 0 {
					// Squashes discard the younger snapshots.
					snaps, refSnaps = snaps[:i+1], refSnaps[:i+1]
				}
			}
			if p.ghr != ref.ghr || p.rasTop != ref.top {
				t.Fatalf("seed %d step %d: ghr/top %#x/%d, reference %#x/%d", seed, step, p.ghr, p.rasTop, ref.ghr, ref.top)
			}
			for i := range ref.ras {
				if p.ras[i] != ref.ras[i] {
					t.Fatalf("seed %d step %d: ras %v, reference %v", seed, step, p.ras, ref.ras)
				}
			}
		}
	}
}

// TestSnapshotDoesNotAllocate: a snapshot at every predicted branch shares
// the RAS; only a push after it copies the stack.
func TestSnapshotDoesNotAllocate(t *testing.T) {
	p := New(DefaultConfig())
	p.PushRAS(1)
	var s State
	if n := testing.AllocsPerRun(100, func() {
		s = p.Snapshot()
		p.PredictCond(3)
		p.PopRAS()
		p.Restore(s)
	}); n != 0 {
		t.Fatalf("snapshot/predict/pop/restore allocates %v times per run, want 0", n)
	}
}
