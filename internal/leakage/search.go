package leakage

// Feedback-driven attack search (leakscan -search): a seeded,
// deterministic hill-climb over the attack-template parameter space,
// steered by the distinguisher's SNR. Each search lane starts from one
// seed spec (by default the canonical variant of every template class)
// and repeatedly proposes a local mutation — one step on one parameter
// axis — of its incumbent; the batch of proposals is fanned through the
// scan runner, each candidate is scored by the strongest SNR any defense
// column shows, and a candidate that beats its lane's incumbent becomes
// the new incumbent. Blind mode (the fuzz baseline the self-test compares
// against) mutates from the immutable seed instead, so improvements
// cannot compound.
//
// Any candidate cell that leaks where the defense-outcome matrix says
// blocked is a find: a defense broken by a searched attack. Finds are
// minimized with the conform ddmin shrinker (the oracle re-runs the
// candidate program under the broken defense and demands the same
// recovered byte) and promoted to replayable traces via conform.EmitTrace
// — the same promotion path the conformance fuzzer uses — so a find
// becomes a committed, importable corpus entry rather than a transcript
// anecdote.
//
// Everything is deterministic at any worker count: mutation draws happen
// on the single search goroutine in lane order, scores come from the
// scan's byte-identical cells, and the checkpoint keys every trial by the
// full parameter set (campaign.Key over TrialSpec, which embeds the whole
// AttackSpec), so -resume can never serve a stale cell for a renamed or
// re-parameterized mutant.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/conform"
	"invisispec/internal/harness"
	"invisispec/internal/isa"
	"invisispec/internal/trace"
	"invisispec/internal/workload"
)

// SearchSchema versions the search artifact.
const SearchSchema = "leakage-search/v1"

// SearchOptions tunes a Search.
type SearchOptions struct {
	// Seed drives every mutation draw. Same seed + budget ⇒ byte-identical
	// report at any Jobs count.
	Seed int64
	// Budget is how many candidates each lane evaluates, including its
	// seed spec. Zero or negative means 8.
	Budget int
	// Seeds are the lanes' starting specs. Nil means the canonical variant
	// of every searchable class: Spectre v1, BTB, RSB, SSB, LLC-SB.
	Seeds []AttackSpec
	// Defenses selects the matrix columns every candidate is scanned
	// against. Nil means config.AllDefenses().
	Defenses []config.Defense
	// Consistency is the memory model (TSO default).
	Consistency config.Consistency
	// Trials per (candidate, defense) cell. Zero or negative means 2.
	Trials int
	// Jobs, Timeout, MaxCycles, Thresholds, Progress, Campaign: exactly
	// ScanOptions' fields, passed through to each iteration's scan batch.
	Jobs       int
	Timeout    time.Duration
	MaxCycles  uint64
	Thresholds Thresholds
	Progress   io.Writer
	// Campaign carries the resilience knobs. Its Store spans every
	// iteration (the cells of earlier iterations are already stored), so
	// one store checkpoints the whole search and a killed search resumes
	// to a byte-identical report.
	Campaign campaign.Options
	// Name labels the report and the campaign's progress lines.
	Name string
	// Blind disables the hill-climb: every mutation starts from the lane's
	// seed spec instead of its incumbent, so improvements cannot compound.
	// This is the fuzz baseline the hill-climb self-test compares against.
	Blind bool
	// ShrinkBudget bounds the ddmin oracle evaluations spent minimizing
	// each find. Zero or negative means 512 (enough for the shrink to
	// reach its fixpoint on the attack templates); set it small in smoke
	// runs where wall-clock matters more than minimality.
	ShrinkBudget int
}

// SearchStep records one candidate evaluation.
type SearchStep struct {
	// Class is the lane's seed spec ID (stable across the lane's steps).
	Class string `json:"class"`
	// Iter is the evaluation round, 0 = the seed itself.
	Iter int `json:"iter"`
	// Attack is the candidate's derived ID.
	Attack string `json:"attack"`
	// Score is the candidate's strongest SNR across the defense columns.
	Score float64 `json:"score"`
	// Accepted marks the candidate replacing the lane's incumbent.
	Accepted bool `json:"accepted"`
	// Best is the lane's incumbent score after this step.
	Best float64 `json:"best"`
	// Repeat marks a candidate whose parameters were already evaluated
	// this search (the mutator re-drew a visited point); its recorded
	// score is replayed without re-scanning.
	Repeat bool `json:"repeat,omitempty"`
}

// SearchFind is a candidate cell that leaked where the defense-outcome
// matrix says blocked — a defense broken by a searched attack.
type SearchFind struct {
	Attack  string     `json:"attack"`
	Defense string     `json:"defense"`
	Spec    AttackSpec `json:"spec"`
	SNR     float64    `json:"snr"`
	// Minimized reports whether the ddmin shrinker reduced the attack
	// program; From/To/Evals are the shrink stats when it ran.
	Minimized   bool `json:"minimized"`
	ShrinkFrom  int  `json:"shrink_from,omitempty"`
	ShrinkTo    int  `json:"shrink_to,omitempty"`
	ShrinkEvals int  `json:"shrink_evals,omitempty"`
	// TraceName names the promoted replayable trace ("" when the find is
	// not promotable — multi-core specs record a schedule-dependent
	// interleaving, so only single-program finds promote).
	TraceName string `json:"trace_name,omitempty"`
	// Note documents why minimization or promotion was skipped.
	Note string `json:"note,omitempty"`
}

// SearchLaneBest is a lane's final incumbent.
type SearchLaneBest struct {
	Class  string     `json:"class"`
	Attack string     `json:"attack"`
	Spec   AttackSpec `json:"spec"`
	Score  float64    `json:"score"`
}

// SearchReport is the deterministic search artifact.
type SearchReport struct {
	Schema   string           `json:"schema"`
	Name     string           `json:"name"`
	Seed     int64            `json:"seed"`
	Budget   int              `json:"budget"`
	Blind    bool             `json:"blind,omitempty"`
	Trials   int              `json:"trials"`
	Defenses []string         `json:"defenses"`
	Steps    []SearchStep     `json:"steps"`
	Best     []SearchLaneBest `json:"best"`
	Finds    []SearchFind     `json:"finds"`
}

// DefaultSearchSeeds returns the canonical starting spec of every
// searchable class, in lane order.
func DefaultSearchSeeds() []AttackSpec {
	return []AttackSpec{
		CanonicalSpectreSpec(84),
		CanonicalBTBSpec(84),
		CanonicalRSBSpec(84),
		CanonicalSSBSpec(84),
		CanonicalLLCSBSpec(84),
	}
}

// Geometry lattices the mutator steps along: the power-of-two values the
// template validators admit.
var (
	searchLines   = []int{16, 32, 64, 128, 256}
	searchStrides = []int{64, 128, 256}
)

// searchRoundsRange returns the template's admissible TrainRounds range —
// the same bounds the per-class validators enforce, so a mutation clamped
// here always assembles.
func searchRoundsRange(t Template) (lo, hi int) {
	switch t {
	case TemplateSpectreRSB:
		return 1, 8
	case TemplateSpectreBTB, TemplateSSB:
		return 1, 64
	default:
		return 1, 256
	}
}

func latticeStep(lattice []int, cur int, up bool) (int, bool) {
	for i, v := range lattice {
		if v != cur {
			continue
		}
		if up && i+1 < len(lattice) {
			return lattice[i+1], true
		}
		if !up && i > 0 {
			return lattice[i-1], true
		}
		return cur, false
	}
	return cur, false
}

// mutateSpec proposes one local move from s: a single step on one
// parameter axis, clamped to the template's admissible ranges. It re-rolls
// until the mutant is valid and differs from s, and returns s unchanged
// (a repeat) if sixteen attempts cannot leave the current point.
func mutateSpec(s AttackSpec, rng *rand.Rand) AttackSpec {
	for attempt := 0; attempt < 16; attempt++ {
		m := s
		switch rng.Intn(4) {
		case 0: // secret: a local hop within the probe geometry
			deltas := [...]int{-16, -1, 1, 16}
			v := int(m.Secret) + deltas[rng.Intn(len(deltas))]
			if v < 1 {
				v = 1
			}
			if v > 255 {
				v = 255
			}
			if v >= m.ProbeLines {
				v = m.ProbeLines - 1
			}
			m.Secret = byte(v)
		case 1: // training depth: halve or double within the class range
			lo, hi := searchRoundsRange(m.Template)
			r := m.TrainRounds
			if rng.Intn(2) == 0 {
				r *= 2
			} else {
				r /= 2
			}
			if r < lo {
				r = lo
			}
			if r > hi {
				r = hi
			}
			m.TrainRounds = r
		case 2: // probe lines: one lattice step; keep the secret encodable
			v, ok := latticeStep(searchLines, m.ProbeLines, rng.Intn(2) == 0)
			if !ok {
				continue
			}
			m.ProbeLines = v
			if int(m.Secret) >= m.ProbeLines {
				m.Secret = byte(m.ProbeLines - 1)
			}
		case 3: // probe stride: one lattice step
			v, ok := latticeStep(searchStrides, m.ProbeStride, rng.Intn(2) == 0)
			if !ok {
				continue
			}
			m.ProbeStride = v
		}
		m = m.withID()
		if m.ID != s.ID && m.Validate() == nil {
			return m
		}
	}
	return s
}

// searchLane is one seed's hill-climb state.
type searchLane struct {
	class string
	seed  AttackSpec
	best  AttackSpec
	score float64
}

// Search runs the feedback-driven attack search and returns its report
// plus the replayable traces of any minimized finds (cmd/leakscan writes
// them to the -promote directory). The returned report is byte-identical
// for the same (Seed, Budget, Seeds, Defenses, Trials) at any Jobs count.
func Search(ctx context.Context, opts SearchOptions) (*SearchReport, []*trace.Trace, error) {
	budget := opts.Budget
	if budget <= 0 {
		budget = 8
	}
	trials := opts.Trials
	if trials <= 0 {
		trials = 2
	}
	shrinkBudget := opts.ShrinkBudget
	if shrinkBudget <= 0 {
		shrinkBudget = 512
	}
	seeds := opts.Seeds
	if len(seeds) == 0 {
		seeds = DefaultSearchSeeds()
	}
	defenses := opts.Defenses
	if len(defenses) == 0 {
		defenses = config.AllDefenses()
	}
	for _, s := range seeds {
		if err := s.Validate(); err != nil {
			return nil, nil, fmt.Errorf("leakage: search seed: %w", err)
		}
		if s.Workload != "" {
			return nil, nil, fmt.Errorf("leakage: search seed %s replays a fixed workload; the search mutates template parameters", s.ID)
		}
	}

	rep := &SearchReport{
		Schema: SearchSchema,
		Name:   opts.Name,
		Seed:   opts.Seed,
		Budget: budget,
		Blind:  opts.Blind,
		Trials: trials,
	}
	for _, d := range defenses {
		rep.Defenses = append(rep.Defenses, d.String())
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	lanes := make([]*searchLane, len(seeds))
	for i, s := range seeds {
		lanes[i] = &searchLane{class: s.ID, seed: s}
	}
	scores := map[string]float64{} // candidate ID -> score, across all lanes
	var finds []SearchFind
	seenFinds := map[string]bool{} // "attack/defense" -> recorded

	for iter := 0; iter < budget; iter++ {
		// Propose this round's candidates, one per lane, drawing from the
		// rng in lane order on this single goroutine — worker count never
		// touches the mutation sequence.
		cands := make([]AttackSpec, len(lanes))
		parents := make([]AttackSpec, len(lanes))
		for li, lane := range lanes {
			if iter == 0 {
				cands[li], parents[li] = lane.seed, lane.seed
				continue
			}
			parent := lane.best
			if opts.Blind {
				parent = lane.seed
			}
			parents[li] = parent
			cands[li] = mutateSpec(parent, rng)
		}
		prescored := map[string]bool{}
		for _, c := range cands {
			_, prescored[c.ID] = scores[c.ID]
		}

		// Scan the candidates not yet scored, as one batch through the
		// runner. Batch dedup keeps IDs unique within the scan.
		var batch []AttackSpec
		inBatch := map[string]bool{}
		for _, c := range cands {
			if _, done := scores[c.ID]; done || inBatch[c.ID] {
				continue
			}
			inBatch[c.ID] = true
			batch = append(batch, c)
		}
		if len(batch) > 0 {
			sopts := ScanOptions{
				Defenses:    defenses,
				Consistency: opts.Consistency,
				Trials:      trials,
				Jobs:        opts.Jobs,
				Timeout:     opts.Timeout,
				MaxCycles:   opts.MaxCycles,
				Thresholds:  opts.Thresholds,
				Progress:    opts.Progress,
				Name:        opts.Name,
				Campaign:    opts.Campaign,
			}
			scanRep, err := Scan(ctx, batch, sopts)
			if err != nil {
				return nil, nil, err
			}
			// Score each candidate by its strongest column; collect finds.
			byAttack := map[string]float64{}
			for _, cell := range scanRep.Cells {
				if cell.SNR > byAttack[cell.Attack] {
					byAttack[cell.Attack] = cell.SNR
				}
				if cell.Verdict == VerdictLeak && cell.Expected == VerdictBlocked &&
					cell.RecoveredByte == cell.Secret {
					key := cell.Attack + "/" + cell.Defense
					if !seenFinds[key] {
						seenFinds[key] = true
						var spec AttackSpec
						for _, b := range batch {
							if b.ID == cell.Attack {
								spec = b
							}
						}
						finds = append(finds, SearchFind{
							Attack:  cell.Attack,
							Defense: cell.Defense,
							Spec:    spec,
							SNR:     cell.SNR,
						})
					}
				}
			}
			for _, b := range batch {
				scores[b.ID] = byAttack[b.ID]
			}
		}

		// Update lanes and record steps, in lane order.
		for li, lane := range lanes {
			c := cands[li]
			score := scores[c.ID]
			step := SearchStep{
				Class:  lane.class,
				Iter:   iter,
				Attack: c.ID,
				Score:  score,
			}
			if iter == 0 {
				lane.best, lane.score = c, score
				step.Accepted = true
			} else {
				// A repeat is a re-drawn point: the mutator could not
				// leave the parent, or the candidate was already scored
				// in an earlier round. Its recorded score is replayed,
				// and it may still be accepted (another lane's earlier
				// candidate can beat this lane's incumbent).
				step.Repeat = c.ID == parents[li].ID || prescored[c.ID]
				if score > lane.score {
					lane.best, lane.score = c, score
					step.Accepted = true
				}
			}
			step.Best = lane.score
			rep.Steps = append(rep.Steps, step)
		}
	}

	for _, lane := range lanes {
		rep.Best = append(rep.Best, SearchLaneBest{
			Class:  lane.class,
			Attack: lane.best.ID,
			Spec:   lane.best,
			Score:  lane.score,
		})
	}

	// Minimize and promote the finds, sequentially (deterministic).
	var traces []*trace.Trace
	for i := range finds {
		t, err := minimizeFind(ctx, &finds[i], opts, shrinkBudget)
		if err != nil {
			finds[i].Note = err.Error()
			continue
		}
		if t != nil {
			traces = append(traces, t)
		}
	}
	rep.Finds = finds
	return rep, traces, nil
}

// minimizeFind shrinks a find's attack program with the conform ddmin
// shrinker — the oracle re-runs the candidate under the broken defense
// and demands a leak recovering the planted secret — and promotes the
// minimized program to a replayable trace. Multi-core specs are left
// unminimized: their recorded interleaving is schedule-dependent.
func minimizeFind(ctx context.Context, f *SearchFind, opts SearchOptions, shrinkBudget int) (*trace.Trace, error) {
	if f.Spec.Cores() != 1 {
		f.Note = "multi-core find: shrink and trace promotion need a single program"
		return nil, nil
	}
	progs, err := f.Spec.Programs()
	if err != nil {
		return nil, err
	}
	d, err := config.ParseDefense(f.Defense)
	if err != nil {
		return nil, err
	}
	maxCycles := opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = 30_000_000
	}
	th := opts.Thresholds.orDefault()
	// The find itself must leak fault-free (Shrink requires its input to
	// satisfy the oracle); its measured runtime then bounds every shrink
	// candidate's budget — a mutilated candidate that deadlocks or loses
	// its halt must fail in ~2x the attack's cycles, not burn the full
	// trial budget.
	lat, cycles, err := runFindProgram(ctx, f.Spec, progs[0], d, opts.Consistency, maxCycles)
	if err != nil {
		f.Note = "leak does not reproduce in a fault-free trial; not minimized"
		return nil, nil
	}
	a := Analyze([][]uint64{lat}, int(f.Spec.Secret), th)
	if a.Verdict != VerdictLeak || a.RecoveredByte != int(f.Spec.Secret) {
		f.Note = "leak does not reproduce in a fault-free trial; not minimized"
		return nil, nil
	}
	oracleBudget := 2*cycles + 10_000
	oracle := func(p *isa.Program) (bool, string) {
		lat, _, err := runFindProgram(ctx, f.Spec, p, d, opts.Consistency, oracleBudget)
		if err != nil {
			return false, ""
		}
		a := Analyze([][]uint64{lat}, int(f.Spec.Secret), th)
		if a.Verdict == VerdictLeak && a.RecoveredByte == int(f.Spec.Secret) {
			return true, "still leaks " + f.Spec.ID
		}
		return false, ""
	}
	min, st := conform.Shrink(progs[0], oracle, shrinkBudget)
	f.Minimized = true
	f.ShrinkFrom, f.ShrinkTo, f.ShrinkEvals = st.From, st.To, st.Evals
	min.Name = fmt.Sprintf("find-%s-%s-min", f.Attack, f.Defense)
	t, err := conform.EmitTrace(min)
	if err != nil {
		// The shrunk attack still leaks but does not halt inside the
		// interpreter budget — keep the minimization, skip the promotion.
		f.Note = "not promoted: " + err.Error()
		return nil, nil
	}
	f.TraceName = min.Name
	return t, nil
}

// runFindProgram runs one candidate program on the find's machine shape
// under the broken defense, fault-free, and returns the probe latencies
// and the cycles the run took.
func runFindProgram(ctx context.Context, s AttackSpec, p *isa.Program, d config.Defense, cm config.Consistency, maxCycles uint64) ([]uint64, uint64, error) {
	run := config.Run{Machine: s.Machine(), Defense: d, Consistency: cm}
	m, err := harness.Complete(run, s.ID, []*isa.Program{p}, maxCycles, harness.WithContext(ctx))
	if err != nil {
		return nil, 0, err
	}
	return workload.ScanLatencies(m.Mem, s.ResultsBase(), s.ResultLines()), m.Cycle(), nil
}
