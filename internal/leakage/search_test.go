package leakage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/defense"
)

// weakSSBSeed is a deliberately weak search starting point: the SSB
// class's SNR grows monotonically with ProbeLines (more cold lines pull
// the scan noise down relative to the fixed sentinel lines), so a seed at
// the bottom of the lattice gives the hill-climb a multi-step gradient to
// compound along.
func weakSSBSeed() AttackSpec {
	s := AttackSpec{
		ID:          "ssb-weak-seed",
		Template:    TemplateSSB,
		Secret:      10,
		TrainRounds: 8,
		ProbeLines:  16,
		ProbeStride: 64,
		FlushBounds: true,
		FlushProbe:  true,
	}
	return s
}

func searchOpts(blind bool) SearchOptions {
	return SearchOptions{
		Seed:     7,
		Budget:   12,
		Seeds:    []AttackSpec{weakSSBSeed()},
		Defenses: []config.Defense{config.Base},
		Trials:   1,
		Blind:    blind,
		Name:     "self-test",
	}
}

// TestSearchHillClimbBeatsBlindFuzz is the seeded self-test of the search
// loop's feedback: with the same seed, budget, and mutation operators,
// the hill-climb's compounding acceptance must reach a strictly higher
// SNR than blind fuzzing (which mutates from the immutable seed, so it
// can never take more than one lattice step).
func TestSearchHillClimbBeatsBlindFuzz(t *testing.T) {
	hill, _, err := Search(context.Background(), searchOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	blind, _, err := Search(context.Background(), searchOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	hb, bb := hill.Best[0], blind.Best[0]
	if hb.Score <= bb.Score {
		t.Fatalf("hill-climb best %.2f (%s) does not beat blind fuzzing best %.2f (%s)",
			hb.Score, hb.Attack, bb.Score, bb.Attack)
	}
	// The climb must actually have compounded: at least two accepted
	// improvements after the seed evaluation.
	accepted := 0
	for _, s := range hill.Steps {
		if s.Iter > 0 && s.Accepted {
			accepted++
		}
	}
	if accepted < 2 {
		t.Fatalf("hill-climb accepted %d improvements, want >= 2 (no compounding)", accepted)
	}
	if len(hill.Finds) != 0 {
		t.Fatalf("search on Base alone reported %d finds, want 0 (Base cells expect leaks)", len(hill.Finds))
	}
}

// TestSearchDeterministicAcrossJobs: same seed + budget must produce a
// byte-identical search report at any worker count.
func TestSearchDeterministicAcrossJobs(t *testing.T) {
	payload := func(jobs int) []byte {
		opts := searchOpts(false)
		opts.Budget = 6
		opts.Jobs = jobs
		rep, _, err := Search(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := payload(1)
	four := payload(4)
	if !bytes.Equal(one, four) {
		t.Fatalf("search report differs between 1 and 4 workers:\n%s\n--- vs ---\n%s", one, four)
	}
}

// leakyGate is a deliberately broken countermeasure registered only in
// this test binary: it claims to be a defense (so the expected-outcome
// matrix predicts blocked for canonical full-flush specs) but takes no
// action at all, so every Spectre variant leaks through it. It exists to
// exercise the search's find -> shrink -> promote path, which no genuine
// defense should ever trigger.
type leakyGate struct{ defense.Unprotected }

func (leakyGate) Name() string        { return "LeakyGate" }
func (leakyGate) Description() string { return "test-only: claims to defend, does nothing" }
func (leakyGate) ThreatModel() string { return "none (deliberately broken)" }

func registerLeakyGate(t *testing.T) config.Defense {
	t.Helper()
	if err := defense.Register(leakyGate{}); err != nil {
		// Already registered by an earlier test in this binary.
		if _, lerr := defense.Lookup("LeakyGate"); lerr != nil {
			t.Fatal(err)
		}
	}
	return config.Defense("LeakyGate")
}

// TestSearchFindMinimizesAndPromotes: a candidate leaking through a
// defense the matrix says blocks it is a find; the find must be ddmin-
// minimized against the broken defense and promoted to a replayable
// trace.
func TestSearchFindMinimizesAndPromotes(t *testing.T) {
	if testing.Short() {
		t.Skip("shrink loop in -short")
	}
	leaky := registerLeakyGate(t)
	seed := CanonicalSpectreSpec(10)
	seed.ProbeLines = 64 // small geometry keeps each shrink oracle eval fast
	seed = seed.withID()
	rep, traces, err := Search(context.Background(), SearchOptions{
		Seed:         3,
		Budget:       1, // the seed itself already breaks the leaky gate
		Seeds:        []AttackSpec{seed},
		Defenses:     []config.Defense{leaky},
		Trials:       1,
		ShrinkBudget: 400,
		Name:         "find-path",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Finds) == 0 {
		t.Fatal("no finds against the deliberately leaky defense")
	}
	f := rep.Finds[0]
	if f.Defense != "LeakyGate" || f.Attack != seed.ID {
		t.Fatalf("find = %s under %s, want %s under LeakyGate", f.Attack, f.Defense, seed.ID)
	}
	if !f.Minimized {
		t.Fatalf("find was not minimized: %+v", f)
	}
	if f.ShrinkTo >= f.ShrinkFrom {
		t.Fatalf("shrink did not reduce the program: %d -> %d insts", f.ShrinkFrom, f.ShrinkTo)
	}
	if f.TraceName == "" || len(traces) != 1 || traces[0].Name != f.TraceName {
		t.Fatalf("find was not promoted to a trace: name=%q traces=%d", f.TraceName, len(traces))
	}
}

// TestTrialSpecKeyHashesFullParams is the satellite-3 audit: the campaign
// checkpoint key must be a content hash of the FULL parameter set, so a
// mutant that reuses an ID with different parameters (or renames the same
// parameters) can never be served a stale stored cell.
func TestTrialSpecKeyHashesFullParams(t *testing.T) {
	base := TrialSpec{Attack: CanonicalSSBSpec(84), Defense: config.Base, Consistency: config.TSO, Trial: 0, MaxCycles: 1000}
	key := func(ts TrialSpec) string {
		t.Helper()
		k, err := campaign.Key(ts)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	same := base
	if key(base) != key(same) {
		t.Fatal("identical specs hash differently")
	}
	mutated := base
	mutated.Attack.TrainRounds = 16 // same ID string, different parameters
	if key(base) == key(mutated) {
		t.Fatal("checkpoint key ignores TrainRounds: a stale cell could be served for a mutated spec")
	}
	renamed := base
	renamed.Attack.ID = "renamed"
	if key(base) == key(renamed) {
		t.Fatal("checkpoint key ignores the ID: distinct report rows would collide in the store")
	}
	for _, mut := range []func(*TrialSpec){
		func(ts *TrialSpec) { ts.Attack.Secret = 85 },
		func(ts *TrialSpec) { ts.Attack.ProbeLines = 128 },
		func(ts *TrialSpec) { ts.Attack.ProbeStride = 128 },
		func(ts *TrialSpec) { ts.Attack.FlushProbe = false },
		func(ts *TrialSpec) { ts.Defense = config.ISFuture },
		func(ts *TrialSpec) { ts.Trial = 1 },
		func(ts *TrialSpec) { ts.MaxCycles = 2000 },
	} {
		m := base
		mut(&m)
		if key(base) == key(m) {
			t.Fatalf("checkpoint key collision after mutation: %+v vs %+v", base, m)
		}
	}
}

// TestChaosSearchKillResume: a checkpointed search SIGKILLed at seeded
// random store writes must resume, from the store reopened as a restarted
// process would, to a byte-identical report — the kill-mid-search coverage
// of the satellite-3 checkpoint-key audit.
func TestChaosSearchKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("search chaos in -short")
	}
	base := searchOpts(false)
	base.Budget = 6

	run := func(opts SearchOptions) (*SearchReport, error) {
		rep, _, err := Search(context.Background(), opts)
		return rep, err
	}
	clean, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	// Upper bound on store writes: every iteration could scan one new
	// candidate across all defense columns and trials.
	maxAppends := base.Budget * len(base.Defenses) * base.Trials

	for _, seed := range []int64{11, 22, 33} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d-w%d", seed, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				opts := base
				opts.Jobs = workers
				dir := t.TempDir()
				opts.Campaign = campaign.Options{
					Store:   openStore(t, dir),
					Retries: 1,
					Seed:    seed,
				}
				opts.Campaign.Chaos = &campaign.ChaosOptions{
					Seed:        rng.Int63(),
					KillAtWrite: 1 + rng.Intn(maxAppends),
				}
				rep, err := run(opts)
				if err != nil {
					if !errors.Is(err, campaign.ErrKilled) {
						t.Fatal(err)
					}
					resumed := opts
					resumed.Campaign.Chaos = nil
					resumed.Campaign.Store = openStore(t, dir)
					rep, err = run(resumed)
					if err != nil {
						t.Fatal(err)
					}
				}
				got, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("resumed search report drifted from clean run:\n%s\n--- want ---\n%s", got, want)
				}
			})
		}
	}
}
