package leakage

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/harness"
	"invisispec/internal/workload"
)

// ScanOptions tunes a Scan.
type ScanOptions struct {
	// Defenses selects the matrix columns. Nil means config.AllDefenses().
	Defenses []config.Defense
	// Consistency is the memory model every cell runs under (TSO default).
	Consistency config.Consistency
	// Trials is how many repeated simulations feed each cell's
	// distinguisher. Trial 0 is fault-free; trials 1..n-1 run with
	// deterministic fault injection seeded from (spec, defense, trial),
	// so the distinguisher sees realistic timing noise without losing
	// reproducibility. Zero or negative means 3.
	Trials int
	// Jobs is the worker-pool width (runner.Options.Jobs semantics).
	Jobs int
	// Timeout bounds each trial's host wall-clock time. Zero means none.
	Timeout time.Duration
	// MaxCycles bounds each trial's simulated time. Zero means 30M cycles,
	// comfortably above the slowest corpus variant under the slowest
	// defense.
	MaxCycles uint64
	// Thresholds tunes the distinguisher. Zero value means defaults.
	Thresholds Thresholds
	// Progress, when non-nil, receives the runner's per-trial progress
	// lines.
	Progress io.Writer
	// Name labels the report (e.g. "smoke" or "fuzz-seed42").
	Name string
	// Campaign carries the resilience knobs (checkpoint store/retries/
	// isolation/chaos) through to the execution layer; Jobs, Timeout, and
	// Progress above override its pool fields.
	Campaign campaign.Options
	// Repro, when non-nil, builds the ready-to-run reproduction command
	// recorded for a degraded cell (cmd/leakscan supplies one from its
	// flags).
	Repro func(TrialSpec) string
}

// TrialSpec is one scan cell's content identity — attack, defense,
// consistency model, trial index, cycle budget — used as the checkpoint
// key and shipped to isolated workers, which re-run it via RunTrialSpec.
type TrialSpec struct {
	Attack      AttackSpec         `json:"attack"`
	Defense     config.Defense     `json:"defense"`
	Consistency config.Consistency `json:"consistency"`
	Trial       int                `json:"trial"`
	MaxCycles   uint64             `json:"max_cycles"`
}

// RunTrialSpec executes one trial from its spec alone and returns the
// probe-line latencies — the in-process cell body and the -cellworker
// handler for isolation mode.
func RunTrialSpec(ctx context.Context, ts TrialSpec) ([]uint64, error) {
	return runTrial(ctx, ts.Attack, ts.Defense, ts.Consistency, ts.Trial, ts.MaxCycles)
}

// Scan runs every spec under every defense for Trials repetitions,
// sharded across the runner pool, and aggregates each (spec, defense)
// cell through the distinguisher into a Report. Cells are emitted in
// spec-major, defense-minor order and every per-trial result is addressed
// by its matrix index, so the report is byte-identical regardless of
// worker count or completion order.
//
// Scan returns an error only for malformed inputs (an invalid spec); a
// failing trial — timeout, budget exhaustion, simulator panic — is
// recorded in its cell, which the gate then counts as a violation.
func Scan(ctx context.Context, specs []AttackSpec, opts ScanOptions) (*Report, error) {
	defenses := opts.Defenses
	if len(defenses) == 0 {
		defenses = config.AllDefenses()
	}
	trials := opts.Trials
	if trials <= 0 {
		trials = 3
	}
	maxCycles := opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = 30_000_000
	}
	th := opts.Thresholds.orDefault()
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}

	cells := make([]campaign.Cell, 0, len(specs)*len(defenses)*trials)
	cellSpecs := make([]TrialSpec, 0, cap(cells))
	for _, s := range specs {
		for _, d := range defenses {
			for t := 0; t < trials; t++ {
				ts := TrialSpec{Attack: s, Defense: d, Consistency: opts.Consistency, Trial: t, MaxCycles: maxCycles}
				cellSpecs = append(cellSpecs, ts)
				cells = append(cells, campaign.Cell{
					Name: fmt.Sprintf("%s/%s/t%d", s.ID, d, t),
					Spec: ts,
					Run: func(ctx context.Context) (any, error) {
						return RunTrialSpec(ctx, ts)
					},
				})
			}
		}
	}
	copts := opts.Campaign
	copts.Workers = opts.Jobs
	copts.CellTimeout = opts.Timeout
	copts.Progress = opts.Progress
	results, err := campaign.Run(ctx, "leakscan-"+opts.Name, cells, copts)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Schema:     ReportSchema,
		Name:       opts.Name,
		Trials:     trials,
		Thresholds: th,
	}
	for _, d := range defenses {
		rep.Defenses = append(rep.Defenses, d.String())
	}
	idx := 0
	for _, s := range specs {
		for _, d := range defenses {
			lats := make([][]uint64, 0, trials)
			firstErr := ""
			for t := 0; t < trials; t++ {
				tr := results[idx]
				idx++
				if tr.Err != nil {
					if firstErr == "" {
						firstErr = tr.Err.Error()
					}
					continue
				}
				var trial []uint64
				if err := json.Unmarshal(tr.Value, &trial); err != nil {
					return nil, fmt.Errorf("leakage: decoding trial %s: %w", tr.Name, err)
				}
				lats = append(lats, trial)
			}
			a := Analyze(lats, int(s.Secret), th)
			expected := s.Expect(d)
			cell := Cell{
				Attack:        s.ID,
				Template:      s.Template.String(),
				Secret:        int(s.Secret),
				Defense:       d.String(),
				Trials:        len(lats),
				Verdict:       a.Verdict,
				Expected:      expected,
				ExpectedLeak:  expected == VerdictLeak,
				RecoveredByte: a.RecoveredByte,
				HitRate:       a.HitRate,
				HotRate:       a.HotRate,
				Margin:        a.Margin,
				SNR:           a.SNR,
				Confidence:    a.Confidence,
				MedianLatency: a.MedianLatency,
				SecretLatency: a.SecretLatency,
				Error:         firstErr,
			}
			// A cell violates the gate when any trial failed outright,
			// when the observed verdict contradicts the matrix, or when a
			// leak "worked" but exfiltrated the wrong byte (a corpus
			// whose attacks recover garbage tests nothing).
			cell.Violation = firstErr != "" ||
				cell.Verdict != cell.Expected ||
				(cell.Expected == VerdictLeak && cell.RecoveredByte != cell.Secret)
			rep.Cells = append(rep.Cells, cell)
		}
	}
	rep.Degraded = campaign.Degraded(results, func(o campaign.Outcome) string {
		if opts.Repro == nil {
			return ""
		}
		return opts.Repro(cellSpecs[o.Index])
	})
	return rep, nil
}

// runTrial assembles and runs one (spec, defense, trial) simulation to
// completion and extracts the probe-line latencies from its functional
// memory.
func runTrial(ctx context.Context, s AttackSpec, d config.Defense, cm config.Consistency, trial int, maxCycles uint64) ([]uint64, error) {
	progs, err := s.Programs()
	if err != nil {
		return nil, err
	}
	run := config.Run{Machine: s.Machine(), Defense: d, Consistency: cm}
	hopts := []harness.Option{harness.WithContext(ctx)}
	if trial > 0 {
		hopts = append(hopts, harness.WithFaultSeed(trialSeed(s.ID, d, trial)))
	}
	m, err := harness.Complete(run, s.ID, progs, maxCycles, hopts...)
	if err != nil {
		return nil, err
	}
	return workload.ScanLatencies(m.Mem, s.ResultsBase(), s.ResultLines()), nil
}

// SingleTrialLatencies runs one fault-free trial of the spec under a
// defense and returns the raw probe-line latencies — the distribution
// behind a cell, for CLIs that want to print it (spectre-poc -full).
func SingleTrialLatencies(ctx context.Context, s AttackSpec, d config.Defense) ([]uint64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return runTrial(ctx, s, d, config.TSO, 0, 30_000_000)
}

// trialSeed derives the deterministic fault-injection seed for one trial
// from the cell's identity, so reruns and resumes reproduce the exact
// noise.
func trialSeed(id string, d config.Defense, trial int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", id, d, trial)
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}
