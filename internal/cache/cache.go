// Package cache provides the set-associative tag/state arrays and MSHR files
// used by every cache level of the simulated hierarchy. The arrays are
// timing/state-only: architectural values live in the machine's functional
// memory image (see internal/isa.Memory and DESIGN.md §1).
//
// Lookup and Touch are deliberately separate operations: InvisiSpec's
// Spec-GetS transactions must be able to probe a cache without perturbing
// replacement (LRU) state, since replacement information is itself a side
// channel the paper closes.
package cache

import "fmt"

// Line is one cache line's tag and coherence metadata. State is owned by the
// coherence protocol (package coherence defines the MESI encoding). The
// one-byte fields come last so a Line packs into 32 bytes.
type Line struct {
	LineNum uint64 // address >> log2(lineSize)
	// Sharers is used only by directory entries embedded in LLC lines: a
	// bitmap of cores holding the line.
	Sharers uint64
	// Owner is the core that holds the line in E/M, or -1.
	Owner int
	Valid bool
	Dirty bool
	State uint8
	// Prefetched marks an L1 line installed by the hardware prefetcher and
	// not yet demand-touched (the trigger tag of a tagged next-line
	// prefetcher).
	Prefetched bool
}

// Array is a set-associative cache with true-LRU replacement.
//
// A set's lines are allocated when the set first takes a line, carved from
// chunks of chunkSets sets in first-touch order. A short run (an attack
// trial, a conformance case) touches a few hundred of an LLC bank's 2048
// sets; allocating all of a bank's 32768 lines up front made the arrays
// most of such a run's allocation, and the garbage collector's work with
// it. Which sets hold storage is not observable through the API.
type Array struct {
	sets  int
	ways  int
	rows  [][]Line // per set, nil until the set first takes a line
	spare []Line   // the unassigned tail of the last chunk
	// lru is sets*ways, row-major by set: 0 = MRU, ways-1 = LRU. A set's
	// ranks are set when the set gets its row.
	lru []uint8
}

// chunkSets is how many sets' lines one allocation provides.
const chunkSets = 16

// NewArray builds an array with the given geometry. Sets must be a power of
// two.
func NewArray(sets, ways int) *Array {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets %d must be a positive power of two", sets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache: ways %d must be positive", ways))
	}
	return &Array{
		sets: sets,
		ways: ways,
		rows: make([][]Line, sets),
		lru:  make([]uint8, sets*ways),
	}
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.sets }

// Ways returns the associativity.
func (a *Array) Ways() int { return a.ways }

func (a *Array) setOf(lineNum uint64) int { return int(lineNum) & (a.sets - 1) }

// row returns set s's lines, giving the set storage (all ways invalid, LRU
// order by way index) on first use.
func (a *Array) row(s int) []Line {
	if r := a.rows[s]; r != nil {
		return r
	}
	if len(a.spare) < a.ways {
		a.spare = make([]Line, min(chunkSets, a.sets)*a.ways)
	}
	r := a.spare[:a.ways:a.ways]
	a.spare = a.spare[a.ways:]
	a.rows[s] = r
	base := s * a.ways
	for w := range r {
		a.lru[base+w] = uint8(w)
	}
	return r
}

// Lookup returns the line holding lineNum, or nil. It does NOT update
// replacement state (see package comment).
func (a *Array) Lookup(lineNum uint64) *Line {
	r := a.rows[a.setOf(lineNum)]
	for w := range r {
		if r[w].Valid && r[w].LineNum == lineNum {
			return &r[w]
		}
	}
	return nil
}

// Touch promotes lineNum to MRU. It is a no-op if the line is absent.
func (a *Array) Touch(lineNum uint64) {
	s := a.setOf(lineNum)
	r := a.rows[s]
	for w := range r {
		if r[w].Valid && r[w].LineNum == lineNum {
			a.promote(s, w)
			return
		}
	}
}

func (a *Array) promote(set, way int) {
	base := set * a.ways
	old := a.lru[base+way]
	for w := 0; w < a.ways; w++ {
		if a.lru[base+w] < old {
			a.lru[base+w]++
		}
	}
	a.lru[base+way] = 0
}

// victim returns the way Insert would replace in set s: an invalid way if
// one exists, otherwise the LRU way.
func (a *Array) victim(s int) int {
	r := a.row(s)
	// Prefer an invalid way.
	for w := range r {
		if !r[w].Valid {
			return w
		}
	}
	// Otherwise the LRU way.
	base := s * a.ways
	for w := range r {
		if int(a.lru[base+w]) == a.ways-1 {
			return w
		}
	}
	panic("cache: no victim found") // unreachable: LRU orders are a permutation
}

// Insert places lineNum into its set, returning the new line and, if a valid
// line was displaced, a copy of the evicted line. The new line is promoted
// to MRU and starts Valid with zeroed metadata.
func (a *Array) Insert(lineNum uint64) (inserted *Line, evicted Line, hadEviction bool) {
	if l := a.Lookup(lineNum); l != nil {
		a.Touch(lineNum)
		return l, Line{}, false
	}
	s := a.setOf(lineNum)
	w := a.victim(s)
	v := &a.rows[s][w]
	if v.Valid {
		evicted = *v
		hadEviction = true
	}
	*v = Line{LineNum: lineNum, Valid: true, Owner: -1}
	a.promote(s, w)
	return v, evicted, hadEviction
}

// Invalidate drops lineNum from the array and demotes the slot to LRU so it
// is the next victim. It reports whether the line was present.
func (a *Array) Invalidate(lineNum uint64) bool {
	s := a.setOf(lineNum)
	r := a.rows[s]
	for w := range r {
		if r[w].Valid && r[w].LineNum == lineNum {
			r[w] = Line{}
			a.demote(s, w)
			return true
		}
	}
	return false
}

func (a *Array) demote(set, way int) {
	base := set * a.ways
	old := a.lru[base+way]
	for w := 0; w < a.ways; w++ {
		if a.lru[base+w] > old {
			a.lru[base+w]--
		}
	}
	a.lru[base+way] = uint8(a.ways - 1)
}

// ForEach calls fn on every valid line. fn must not insert or invalidate.
func (a *Array) ForEach(fn func(*Line)) {
	for _, r := range a.rows {
		for w := range r {
			if r[w].Valid {
				fn(&r[w])
			}
		}
	}
}

// Count returns the number of valid lines (for tests and occupancy checks).
func (a *Array) Count() int {
	n := 0
	a.ForEach(func(*Line) { n++ })
	return n
}

// LRUOrder returns the line numbers of the given set from MRU to LRU,
// including only valid ways. It exposes replacement state so tests can
// assert that Spec-GetS never perturbs it.
func (a *Array) LRUOrder(set int) []uint64 {
	out := make([]uint64, 0, a.ways)
	r := a.rows[set]
	base := set * a.ways
	for rank := 0; rank < len(r); rank++ {
		for w := range r {
			if int(a.lru[base+w]) == rank && r[w].Valid {
				out = append(out, r[w].LineNum)
			}
		}
	}
	return out
}

// SetOf exposes the set index mapping (for tests constructing conflicts).
func (a *Array) SetOf(lineNum uint64) int { return a.setOf(lineNum) }
