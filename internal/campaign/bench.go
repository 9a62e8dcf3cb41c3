package campaign

// Bench adapter: turns the runner's experiment-matrix jobs into campaign
// cells whose content key is the (workload, defense, consistency, seed,
// budget, kernel) tuple, maps campaign outcomes back into the JobResult
// shape the figure generators consume, and assembles the bench artifact.
// RunBench is the one place a job matrix becomes a bench artifact:
// cmd/benchtable and the simulation server both call it.

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/runner"
)

// JobSpec is a bench cell's content identity: every input that determines
// the run's deterministic output, and nothing host-dependent (timeouts and
// worker counts deliberately excluded). It is the checkpoint key and the
// isolation wire format for bench campaigns.
type JobSpec struct {
	Workload    string             `json:"workload"`
	Parsec      bool               `json:"parsec,omitempty"`
	Defense     config.Defense     `json:"defense"`
	Consistency config.Consistency `json:"consistency"`
	Warmup      uint64             `json:"warmup"`
	Measure     uint64             `json:"measure"`
	FaultSeed   int64              `json:"fault_seed,omitempty"`
	Kernel      string             `json:"kernel"`
}

// SpecForJob builds the content identity for one job under a kernel.
func SpecForJob(j runner.Job, kernel engine.Kernel) JobSpec {
	return JobSpec{
		Workload:    j.Workload,
		Parsec:      j.Parsec,
		Defense:     j.Defense,
		Consistency: j.Consistency,
		Warmup:      j.Warmup,
		Measure:     j.Measure,
		FaultSeed:   j.FaultSeed,
		Kernel:      kernel.String(),
	}
}

// RunJobSpec executes one bench cell from its spec alone — the in-process
// cell body and the -cellworker handler for isolation mode.
func RunJobSpec(ctx context.Context, s JobSpec) (harness.Result, error) {
	kernel, err := engine.ParseKernel(s.Kernel)
	if err != nil {
		return harness.Result{}, fmt.Errorf("campaign: job %s/%s/%s: %w", s.Workload, s.Defense, s.Consistency, err)
	}
	opts := []harness.Option{harness.WithContext(ctx), harness.WithKernel(kernel)}
	if s.FaultSeed != 0 {
		opts = append(opts, harness.WithFaultSeed(s.FaultSeed))
	}
	// s.Parsec stays part of the content identity (checkpoint keys predate
	// the registry) but dispatch is the registry's job now.
	return harness.MeasureWorkload(s.Workload, s.Defense, s.Consistency, s.Warmup, s.Measure, opts...)
}

// JobCells wraps an experiment matrix as campaign cells under one kernel.
func JobCells(jobs []runner.Job, kernel engine.Kernel, timeout time.Duration) []Cell {
	cells := make([]Cell, len(jobs))
	for i, j := range jobs {
		spec := SpecForJob(j, kernel)
		perCell := j.Timeout
		if perCell == 0 {
			perCell = timeout
		}
		cells[i] = Cell{
			Name:    j.String(),
			Spec:    spec,
			Timeout: perCell,
			Run: func(ctx context.Context) (any, error) {
				return RunJobSpec(ctx, spec)
			},
		}
	}
	return cells
}

// JobResults converts campaign outcomes (parallel to the jobs that built the
// cells) back into the runner's JobResult shape: stored and fresh values
// decode identically, failed cells carry their terminal error.
func JobResults(jobs []runner.Job, outcomes []Outcome) ([]runner.JobResult, error) {
	if len(jobs) != len(outcomes) {
		return nil, fmt.Errorf("campaign: %d outcomes for %d jobs", len(outcomes), len(jobs))
	}
	results := make([]runner.JobResult, len(jobs))
	for i, o := range outcomes {
		results[i] = runner.JobResult{Job: jobs[i], Index: i, Err: o.Err, HostNS: o.HostNS}
		if o.Err != nil {
			continue
		}
		if err := json.Unmarshal(o.Value, &results[i].Result); err != nil {
			return nil, fmt.Errorf("campaign: decoding result for %s: %w", o.Name, err)
		}
	}
	return results, nil
}

// BenchSweep is one bench matrix for RunBench.
type BenchSweep struct {
	// Campaign names the run in progress lines and errors.
	Campaign string
	// Name, Warmup and Measure are the artifact's header fields.
	Name            string
	Warmup, Measure uint64
	Jobs            []runner.Job
	Kernel          engine.Kernel
	// Repro, when non-nil, supplies each degraded cell's ready-to-run
	// reproduction command.
	Repro func(j runner.Job) string
}

// RunBench runs a bench matrix as campaign cells under s.Kernel and
// assembles its artifact: JobCells -> Run -> JobResults -> Degraded ->
// runner.NewBench, with the degraded block set and no host block. It returns
// the bench, the decoded results and the raw outcomes. On a campaign-level
// error it returns the outcomes so far and no bench.
func RunBench(ctx context.Context, s BenchSweep, opts Options) (*runner.Bench, []runner.JobResult, []Outcome, error) {
	outcomes, err := Run(ctx, s.Campaign, JobCells(s.Jobs, s.Kernel, 0), opts)
	if err != nil {
		return nil, nil, outcomes, err
	}
	results, err := JobResults(s.Jobs, outcomes)
	if err != nil {
		return nil, nil, outcomes, err
	}
	var repro func(Outcome) string
	if s.Repro != nil {
		repro = func(o Outcome) string { return s.Repro(s.Jobs[o.Index]) }
	}
	b := runner.NewBench(s.Name, s.Warmup, s.Measure, results)
	b.Degraded = Degraded(outcomes, repro)
	return b, results, outcomes, nil
}
