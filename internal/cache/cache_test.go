package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestInsertLookup(t *testing.T) {
	a := NewArray(4, 2)
	a.Insert(0x10)
	if l := a.Lookup(0x10); l == nil || l.LineNum != 0x10 {
		t.Fatal("inserted line not found")
	}
	if a.Lookup(0x11) != nil {
		t.Fatal("phantom hit")
	}
}

func TestLRUEviction(t *testing.T) {
	a := NewArray(1, 2) // one set, two ways
	a.Insert(0)
	a.Insert(1)
	a.Touch(0) // 0 becomes MRU; 1 is now LRU
	_, ev, had := a.Insert(2)
	if !had || ev.LineNum != 1 {
		t.Fatalf("evicted %+v (had=%v), want line 1", ev, had)
	}
	if a.Lookup(0) == nil || a.Lookup(2) == nil || a.Lookup(1) != nil {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestLookupDoesNotTouchLRU(t *testing.T) {
	// This property is what lets Spec-GetS probe without leaving a trace.
	a := NewArray(1, 2)
	a.Insert(0) // order: 0
	a.Insert(1) // order: 1,0 → LRU is 0
	a.Lookup(0) // must NOT promote 0
	_, ev, had := a.Insert(2)
	if !had || ev.LineNum != 0 {
		t.Fatalf("evicted %+v, want line 0 — Lookup perturbed LRU", ev)
	}
}

func TestInsertExistingPromotes(t *testing.T) {
	a := NewArray(1, 2)
	a.Insert(0)
	a.Insert(1)
	_, _, had := a.Insert(0) // re-insert = touch
	if had {
		t.Fatal("re-insert must not evict")
	}
	_, ev, _ := a.Insert(2)
	if ev.LineNum != 1 {
		t.Fatalf("evicted %d, want 1", ev.LineNum)
	}
}

func TestInvalidateDemotes(t *testing.T) {
	a := NewArray(1, 2)
	a.Insert(0)
	a.Insert(1)
	if !a.Invalidate(1) {
		t.Fatal("Invalidate missed present line")
	}
	if a.Invalidate(1) {
		t.Fatal("Invalidate hit absent line")
	}
	// The freed way must be reused without evicting line 0.
	_, _, had := a.Insert(2)
	if had {
		t.Fatal("insert after invalidate evicted a live line")
	}
	if a.Lookup(0) == nil {
		t.Fatal("line 0 lost")
	}
}

func TestSetMapping(t *testing.T) {
	a := NewArray(8, 2)
	// Lines 8 sets apart collide.
	a.Insert(3)
	a.Insert(3 + 8)
	a.Insert(3 + 16) // evicts 3
	if a.Lookup(3) != nil {
		t.Fatal("line 3 should have been evicted by set conflict")
	}
	if a.Lookup(3+8) == nil || a.Lookup(3+16) == nil {
		t.Fatal("conflict set contents wrong")
	}
	// A line in a different set is unaffected.
	a.Insert(4)
	if a.Lookup(4) == nil {
		t.Fatal("line in different set missing")
	}
}

func TestLRUOrder(t *testing.T) {
	a := NewArray(1, 4)
	for _, ln := range []uint64{0, 1, 2, 3} {
		a.Insert(ln)
	}
	a.Touch(1)
	got := a.LRUOrder(0)
	want := []uint64{1, 3, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LRUOrder = %v, want %v", got, want)
		}
	}
}

func TestCountAndForEach(t *testing.T) {
	a := NewArray(4, 2)
	for i := uint64(0); i < 5; i++ {
		a.Insert(i)
	}
	if a.Count() != 5 {
		t.Fatalf("Count = %d, want 5", a.Count())
	}
	sum := uint64(0)
	a.ForEach(func(l *Line) { sum += l.LineNum })
	if sum != 0+1+2+3+4 {
		t.Fatalf("ForEach sum = %d", sum)
	}
}

// quickLRU is a reference model: per-set slice ordered MRU-first.
type quickLRU struct {
	sets, ways int
	order      [][]uint64
}

func newQuickLRU(sets, ways int) *quickLRU {
	return &quickLRU{sets: sets, ways: ways, order: make([][]uint64, sets)}
}

func (m *quickLRU) access(ln uint64) {
	s := int(ln) & (m.sets - 1)
	set := m.order[s]
	for i, v := range set {
		if v == ln {
			copy(set[1:i+1], set[:i])
			set[0] = ln
			return
		}
	}
	if len(set) == m.ways {
		set = set[:m.ways-1]
	}
	m.order[s] = append([]uint64{ln}, set...)
}

func (m *quickLRU) contents(s int) []uint64 { return m.order[s] }

func TestArrayMatchesReferenceLRU(t *testing.T) {
	// 64 sets span several chunks of rows, given out in first-touch order.
	for _, g := range []struct{ sets, ways int }{{4, 4}, {64, 4}} {
		a := NewArray(g.sets, g.ways)
		ref := newQuickLRU(g.sets, g.ways)
		f := func(accesses []uint16) bool {
			for _, x := range accesses {
				ln := uint64(x % uint16(16*g.sets))
				a.Insert(ln)
				ref.access(ln)
			}
			for s := 0; s < g.sets; s++ {
				got := a.LRUOrder(s)
				want := ref.contents(s)
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						return false
					}
				}
			}
			return true
		}
		cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("%dx%d: %v", g.sets, g.ways, err)
		}
	}
}

// TestRowsAllocatedOnFirstInsert checks a set gets storage only when it
// takes a line: probes of untouched sets allocate nothing and find nothing.
func TestRowsAllocatedOnFirstInsert(t *testing.T) {
	const sets, ways = 2048, 16
	a := NewArray(sets, ways)
	rows := func() int {
		n := 0
		for _, r := range a.rows {
			if r != nil {
				n++
			}
		}
		return n
	}
	a.Touch(5)
	if a.Lookup(5) != nil || a.Invalidate(5) || len(a.LRUOrder(5)) != 0 || a.Count() != 0 || rows() != 0 {
		t.Fatal("probing an empty array found a line or gave a set storage")
	}
	// One line in each of 40 sets, every 32nd set: more sets than a chunk.
	for i := uint64(0); i < 40; i++ {
		a.Insert(i * 32)
	}
	if rows() != 40 || a.Count() != 40 {
		t.Fatalf("%d rows, %d lines after filling 40 sets", rows(), a.Count())
	}
	for i := uint64(0); i < 40; i++ {
		if l := a.Lookup(i * 32); l == nil || l.Owner != -1 {
			t.Fatalf("line %d lost or aliased", i*32)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { a.Lookup(7); a.Touch(7) }); allocs != 0 || rows() != 40 {
		t.Fatalf("probing an untouched set allocated (%v allocs, %d rows)", allocs, rows())
	}
}

func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n > 32 {
		t.Fatalf("Line is %d bytes, want at most 32: an LLC bank holds 32768 of them", n)
	}
}

func TestNewArrayPanics(t *testing.T) {
	for _, tc := range []struct{ sets, ways int }{{3, 2}, {0, 2}, {4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewArray(%d,%d) did not panic", tc.sets, tc.ways)
				}
			}()
			NewArray(tc.sets, tc.ways)
		}()
	}
}

func TestMSHRAllocLookupFree(t *testing.T) {
	f := NewMSHRFile(2)
	m1 := f.Alloc(10)
	if m1 == nil {
		t.Fatal("alloc failed on empty file")
	}
	m1.Waiters = append(m1.Waiters, 100, 101)
	if f.Lookup(10) != m1 {
		t.Fatal("lookup missed")
	}
	m2 := f.Alloc(20)
	if m2 == nil || f.Alloc(30) != nil {
		t.Fatal("capacity accounting wrong")
	}
	if !f.Full() || f.InFlight() != 2 {
		t.Fatal("Full/InFlight wrong")
	}
	w := f.Free(10)
	if len(w) != 2 || w[0] != 100 || w[1] != 101 {
		t.Fatalf("Free returned %v", w)
	}
	if f.Lookup(10) != nil || f.Full() {
		t.Fatal("free did not release entry")
	}
	if f.Free(99) != nil {
		t.Fatal("freeing absent line returned waiters")
	}
}

func TestMSHRDropWaiter(t *testing.T) {
	f := NewMSHRFile(2)
	m := f.Alloc(10)
	m.Waiters = append(m.Waiters, 1, 2, 3)
	f.DropWaiter(2)
	if len(m.Waiters) != 2 || m.Waiters[0] != 1 || m.Waiters[1] != 3 {
		t.Fatalf("waiters after drop: %v", m.Waiters)
	}
	// Dropping an unknown token is a no-op.
	f.DropWaiter(42)
	if len(m.Waiters) != 2 {
		t.Fatal("unknown-token drop mutated waiters")
	}
	// The MSHR must remain allocated.
	if f.Lookup(10) == nil {
		t.Fatal("DropWaiter freed the MSHR")
	}
}

func TestMSHRFilePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMSHRFile(0) did not panic")
		}
	}()
	NewMSHRFile(0)
}
