package main

// leak-smoke: leakage.Scan over the security gate's attack corpus
// (leakage.SmokeCorpus, the corpus `make leakscan` gates on) × every
// defense × 3 trials, trials 1–2 under seeded fault injection. The seed
// picks each scan's spec order, and so the dispatch order.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/leakage"
	"invisispec/internal/sim"
)

const (
	leakTrials    = 3
	leakMaxCycles = 30_000_000 // leakage.Scan's default trial budget
)

// leakCorpus is the gate corpus in a seed-shuffled order.
func leakCorpus(rng *rand.Rand) []leakage.AttackSpec {
	specs := leakage.SmokeCorpus()
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// scanResult is one leakage.Scan.
type scanResult struct {
	wall   time.Duration
	report *leakage.Report
	values map[string]json.RawMessage // trial value by campaign key
	body   map[string]time.Duration   // trial body time by cell name
	specs  map[string]leakage.TrialSpec
	counts counters // machine counters; decomposed scans only
}

// runScan scans specs. By default each trial runs the scanner's own body
// (leakage.RunTrialSpec) under a timer. With decompose set it runs
// tracedTrial instead, one span per public call on tr (which may be nil)
// and the finished machine's counters read.
func runScan(e *env, specs []leakage.AttackSpec, decompose bool, tr *tracer) (*scanResult, error) {
	sr := &scanResult{values: map[string]json.RawMessage{}, body: map[string]time.Duration{},
		specs: map[string]leakage.TrialSpec{}}
	var mu sync.Mutex
	opts := leakage.ScanOptions{Trials: leakTrials, Jobs: e.workers, Name: "perfbench"}
	opts.Campaign.Exec = func(ctx context.Context, c campaign.Cell, key string) (json.RawMessage, error) {
		ts := c.Spec.(leakage.TrialSpec)
		var (
			v   any
			m   *sim.Machine
			err error
		)
		root := tr.begin("harness.cell", c.Name, 0)
		t0 := time.Now()
		if decompose {
			v, m, err = tracedTrial(ctx, tr, c.Name, root, ts)
		} else {
			v, err = c.Run(ctx)
		}
		d := time.Since(t0)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		raw, err := marshal(v)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		sr.values[key] = raw
		sr.body[c.Name] = d
		sr.specs[c.Name] = ts
		if m != nil {
			sr.counts.addMachine(m)
		}
		return raw, nil
	}
	t0 := time.Now()
	rep, err := leakage.Scan(context.Background(), specs, opts)
	sr.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	sr.report = rep
	return sr, nil
}

// checkReport applies the security gate: no violation, every expected leak
// observed with the planted byte, every trial completed. It returns the
// number of failed trials.
func checkReport(rep *leakage.Report) (int, error) {
	failed := 0
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, c := range rep.Cells {
		if c.Trials != leakTrials || c.Error != "" {
			failed += leakTrials - c.Trials
			note(fmt.Errorf("cell %s/%s: %d of %d trials completed: %s", c.Attack, c.Defense, c.Trials, leakTrials, c.Error))
		}
		if c.ExpectedLeak && (c.Verdict != leakage.VerdictLeak || c.RecoveredByte != c.Secret) {
			note(fmt.Errorf("cell %s/%s: expected leak of %d not observed (verdict %v, recovered %d)", c.Attack, c.Defense, c.Secret, c.Verdict, c.RecoveredByte))
		}
	}
	if v := rep.Violations(); len(v) > 0 {
		note(fmt.Errorf("%d gate violations, first %s/%s (verdict %v, expected %v)", len(v), v[0].Attack, v[0].Defense, v[0].Verdict, v[0].Expected))
	}
	return failed, firstErr
}

func runLeakWorkload(e *env) (result, error) {
	var specs []leakage.AttackSpec
	rng := rand.New(rand.NewSource(e.seed))
	setup, err := e.timeSetup(func() error {
		specs = leakCorpus(rand.New(rand.NewSource(e.seed)))
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				return err
			}
			if _, err := s.Programs(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return result{}, err
	}
	if e.trace {
		return traceLeak(e, specs)
	}
	// The simulator is deterministic and the fault seeds are fixed, so
	// every scan of the corpus retires the same instructions: count them
	// once, outside the timed scans, through the decomposed trial body.
	counted, err := runScan(e, specs, true, nil)
	if err != nil {
		return result{}, err
	}
	var (
		wall      time.Duration
		trialMS   []float64
		jobMS     []float64
		scans     int
		attempted int
		failed    int
		correct   = true
	)
	// Whole scans until the measured time is reached and the verdicts are
	// enough for a p90.
	for wall < e.seconds || len(jobMS) < 10*minTail {
		sr, err := runScan(e, leakCorpus(rng), false, nil)
		if err != nil {
			return result{}, err
		}
		if scans == 0 { // the first scan draws the same order as specs
			if err := sameTrials(sr, counted); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: counted trials differ from leakage.RunTrialSpec: %v\n", err)
				correct = false
			}
		}
		scans++
		wall += sr.wall
		attempted += len(sr.report.Cells) * leakTrials
		jobs := make(map[string]float64)
		for name, d := range sr.body {
			ms := float64(d.Nanoseconds()) / 1e6
			trialMS = append(trialMS, ms)
			ts := sr.specs[name]
			jobs[ts.Attack.ID+"/"+ts.Defense.String()] += ms
		}
		for _, ms := range jobs {
			jobMS = append(jobMS, ms)
		}
		nf, err := checkReport(sr.report)
		failed += nf
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: leak-smoke check failed: %v\n", err)
			correct = false
		}
	}
	instr := float64(scans) * float64(counted.counts.retired)
	ms := newMetrics()
	ms.set("setup_s", "s", setup.Seconds(), setupRuns)
	ms.set("cells_per_s", "1/s", float64(len(trialMS))/wall.Seconds(), len(trialMS))
	ms.dist("cell_ms", "ms", trialMS, true)
	// A leak-smoke job is one verdict: an attack under one defense.
	ms.set("jobs_per_s", "1/s", float64(len(jobMS))/wall.Seconds(), len(jobMS))
	ms.dist("job_ms", "ms", jobMS, true)
	ms.set("sim_minstr_per_s", "Minstr/s", instr/1e6/wall.Seconds(), len(trialMS))
	if ms.err != nil {
		return result{}, ms.err
	}
	return result{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: ms.m}, nil
}

// traceLeak scans one corpus twice: through leakage.RunTrialSpec itself
// (the reference and the overhead baseline), then traced; every trial must
// agree byte for byte across the two.
func traceLeak(e *env, specs []leakage.AttackSpec) (result, error) {
	gc0 := readGC()
	ref, err := runScan(e, specs, false, nil)
	if err != nil {
		return result{}, err
	}
	gc1 := readGC()
	tr := newTracer()
	traced, err := runScan(e, specs, true, tr)
	if err != nil {
		return result{}, err
	}
	correct := true
	failed := 0
	for _, sr := range []*scanResult{ref, traced} {
		nf, err := checkReport(sr.report)
		failed += nf
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: leak-smoke check failed: %v\n", err)
			correct = false
		}
	}
	if err := sameTrials(ref, traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: traced trials differ from leakage.RunTrialSpec: %v\n", err)
		correct = false
	}
	if err := tracedAnalyze(tr, traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		correct = false
	}
	sp := tr.begin("leakage.report", "", 0)
	var buf bytes.Buffer
	err = leakage.WriteJSON(&buf, traced.report)
	tr.end(sp)
	if err != nil {
		return result{}, err
	}
	probe, err := leakProbe(specs)
	if err != nil {
		return result{}, err
	}
	n := len(ref.values)
	lm := layerMetrics{tr: tr, counts: traced.counts, workers: e.workers, wall: traced.wall, refWall: ref.wall,
		gc: gc1.sub(gc0), gcCells: n, probe: probe}
	ms := lm.report()
	lm.printShares(os.Stdout)
	if ms.err != nil {
		return result{}, ms.err
	}
	if _, err := tr.write(e.traceDir(), "leak-smoke.jsonl"); err != nil {
		return result{}, err
	}
	return result{Correct: correct && failed == 0, Attempted: 2 * n, Failed: failed, Metrics: ms.m}, nil
}

// sameTrials checks every trial value and the reports' payloads agree.
func sameTrials(want *scanResult, got ...*scanResult) error {
	wantRep, err := json.Marshal(want.report.DeterministicPayload())
	if err != nil {
		return err
	}
	for _, g := range got {
		if len(g.values) != len(want.values) {
			return fmt.Errorf("%d trials vs %d", len(g.values), len(want.values))
		}
		for k, v := range want.values {
			if !bytes.Equal(g.values[k], v) {
				return fmt.Errorf("trial %s: %s vs %s", k, g.values[k], v)
			}
		}
		rep, err := json.Marshal(g.report.DeterministicPayload())
		if err != nil {
			return err
		}
		if !bytes.Equal(rep, wantRep) {
			return fmt.Errorf("report payloads differ")
		}
	}
	return nil
}

// tracedAnalyze re-runs the distinguisher on each report cell's traced
// trials under a span and checks it reproduces the report.
func tracedAnalyze(tr *tracer, sr *scanResult) error {
	byCell := make(map[string][][]uint64)
	for _, ts := range sr.specs {
		key, err := campaign.Key(ts)
		if err != nil {
			return err
		}
		var lats []uint64
		if err := json.Unmarshal(sr.values[key], &lats); err != nil {
			return err
		}
		id := ts.Attack.ID + "/" + ts.Defense.String()
		for len(byCell[id]) <= ts.Trial {
			byCell[id] = append(byCell[id], nil)
		}
		byCell[id][ts.Trial] = lats
	}
	for _, c := range sr.report.Cells {
		sp := tr.begin("leakage.analyze", c.Attack+"/"+c.Defense, 0)
		a := leakage.Analyze(byCell[c.Attack+"/"+c.Defense], c.Secret, sr.report.Thresholds)
		tr.end(sp)
		if a.Verdict != c.Verdict || a.RecoveredByte != c.RecoveredByte || a.SNR != c.SNR {
			return fmt.Errorf("leakage.Analyze on %s/%s disagrees with the report", c.Attack, c.Defense)
		}
	}
	return nil
}

// leakProbe runs the first trials of a corpus through the allocation probe.
func leakProbe(specs []leakage.AttackSpec) (allocs, error) {
	var a allocs
	for i := 0; i < probeCells; i++ {
		s := specs[i/leakTrials%len(specs)]
		trial := i % leakTrials
		progs, err := s.Programs()
		if err != nil {
			return a, err
		}
		run := config.Run{Machine: s.Machine(), Defense: config.Base}
		err = a.probe(run, progs, func(m *sim.Machine) error {
			if trial > 0 {
				m.SeedFaults(trialSeed(s.ID, config.Base, trial))
			}
			return m.RunToCompletion(leakMaxCycles)
		})
		if err != nil {
			return a, err
		}
	}
	return a, nil
}
