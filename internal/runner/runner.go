// Package runner holds the bounded worker pool (RunTasks) that every
// experiment matrix fans out through, the experiment-matrix vocabulary
// (Job, Matrix, JobResult, FirstError), and the bench-JSON artifact schema.
// The pool aggregates results in task-index order, so parallel output is
// byte-identical to serial output.
//
// Each simulated Machine is single-goroutine and fully deterministic, so a
// matrix is embarrassingly parallel: workers share nothing but the task
// queue and the results slice (disjoint slots). Determinism of the aggregate
// therefore reduces to ordering, which the index-addressed results slice
// pins regardless of completion order. Bench matrices reach the pool through
// internal/campaign, which adds checkpointing, retries and isolation on top.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"invisispec/internal/config"
	"invisispec/internal/harness"
)

// Job is one cell of the experiment matrix: a workload measured under one
// defense and consistency model for a fixed instruction budget.
type Job struct {
	Workload    string
	Parsec      bool // 8-core PARSEC machine instead of 1-core SPEC machine
	Defense     config.Defense
	Consistency config.Consistency
	Warmup      uint64
	Measure     uint64
	// FaultSeed, when non-zero, enables deterministic fault injection with
	// this seed (harness.WithFaultSeed).
	FaultSeed int64
	// Timeout, when non-zero, bounds the job's host wall-clock time. The
	// deadline is enforced cooperatively inside the simulation loop (layered
	// on the cycle-budget watchdog, which already bounds simulated time), so
	// a timed-out job returns on the worker's own stack — no goroutine leaks.
	Timeout time.Duration
}

// String names the job the way the figures label their bars.
func (j Job) String() string {
	return fmt.Sprintf("%s/%s/%s", j.Workload, j.Defense, j.Consistency)
}

// JobResult pairs a job with its measurement (or its error).
type JobResult struct {
	Job    Job
	Index  int // position in the submitted matrix
	Result harness.Result
	// Err is the job's failure, if any: a measurement error (including
	// sim.BudgetError), a context cancellation/timeout, or a recovered
	// panic. A failed job never kills the pool; the rest of the matrix
	// completes.
	Err error
	// HostNS is the job's host wall-clock duration in nanoseconds. It is the
	// one nondeterministic field; the bench-JSON writer quarantines it in
	// the host block so the deterministic payload stays byte-stable.
	HostNS int64
}

// Options tunes a RunTasks call.
type Options struct {
	// Jobs is the worker count. Zero or negative means runtime.GOMAXPROCS(0);
	// the pool never exceeds the job count.
	Jobs int
	// Progress, when non-nil, receives one line per completed job with
	// completed/total counts and an ETA extrapolated from throughput so far.
	// Callers that also write artifacts to stdout should point this at
	// stderr (or io.Discard) so progress lines never interleave with
	// artifact bytes; the CLIs do exactly that.
	Progress io.Writer
	// OnProgress, when non-nil, receives the same completion events as
	// Progress but structured, for callers that log in their own format
	// (the simulation server emits JSON log lines from it). Both may be set;
	// the callback fires after the line is written, under the same lock, so
	// events arrive in completion order.
	OnProgress func(ProgressEvent)
}

// workers resolves the pool size for n jobs.
func (o Options) workers(n int) int {
	w := o.Jobs
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ProgressEvent is one completed unit of work, as reported to
// Options.OnProgress. Counters are cumulative across the RunTasks call.
type ProgressEvent struct {
	Name      string        // the task/job that just finished
	Value     any           // its result, nil on failure
	Err       error         // its failure, nil on success
	Completed int           // tasks finished so far, including this one
	Failed    int           // failures so far
	Total     int           // tasks in the matrix
	Elapsed   time.Duration // wall clock since the pool started
	ETA       time.Duration // remaining-time estimate from throughput so far
}

// progress serializes completion reporting across workers.
type progress struct {
	mu        sync.Mutex
	w         io.Writer
	fn        func(ProgressEvent)
	total     int
	completed int
	failed    int
	start     time.Time
}

func newProgress(w io.Writer, fn func(ProgressEvent), total int) *progress {
	return &progress{w: w, fn: fn, total: total, start: time.Now()}
}

// done records one finished unit of work, emits a progress line with an ETA,
// and fires the structured callback.
func (p *progress) done(name string, value any, err error) {
	if p == nil || (p.w == nil && p.fn == nil) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.completed++
	if err != nil {
		p.failed++
	}
	elapsed := time.Since(p.start)
	eta := time.Duration(0)
	if p.completed > 0 {
		eta = time.Duration(float64(elapsed) / float64(p.completed) * float64(p.total-p.completed)).Round(time.Second)
	}
	if p.w != nil {
		status := "ok"
		if err != nil {
			status = "FAIL"
		}
		fmt.Fprintf(p.w, "runner: %d/%d done (%d failed)  last %-28s %-4s  elapsed %s  eta %s\n",
			p.completed, p.total, p.failed, name, status,
			elapsed.Round(time.Second), eta)
	}
	if p.fn != nil {
		p.fn(ProgressEvent{
			Name: name, Value: value, Err: err,
			Completed: p.completed, Failed: p.failed, Total: p.total,
			Elapsed: elapsed, ETA: eta,
		})
	}
}

// Matrix builds the cross product (workloads x consistencies x defenses x
// seeds) in deterministic order: workload-major, then consistency, then
// defense, then seed — the order the figures print their rows. seeds may be
// nil/empty for the standard fault-free matrix (one job per cell, seed 0).
func Matrix(workloads []string, parsec bool, cms []config.Consistency, defenses []config.Defense, seeds []int64, warmup, measure uint64) []Job {
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	jobs := make([]Job, 0, len(workloads)*len(cms)*len(defenses)*len(seeds))
	for _, w := range workloads {
		for _, cm := range cms {
			for _, d := range defenses {
				for _, s := range seeds {
					jobs = append(jobs, Job{
						Workload: w, Parsec: parsec, Defense: d, Consistency: cm,
						Warmup: warmup, Measure: measure, FaultSeed: s,
					})
				}
			}
		}
	}
	return jobs
}

// FirstError returns the first failed job's error in matrix order (nil if
// every job succeeded). Deterministic regardless of completion order.
func FirstError(results []JobResult) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
