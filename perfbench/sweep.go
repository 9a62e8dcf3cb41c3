package main

// The Figure-4 and Figure-7 sweeps: the paper's SPEC and PARSEC matrices
// run through campaign.JobCells and campaign.Run, the path benchtable and
// the job server share.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/runner"
	"invisispec/internal/sim"
	"invisispec/internal/workload"
)

// Smoke budgets: the matrix `make smoke` and BENCH_baseline.json use.
const (
	sweepWarmup  = 5000
	sweepMeasure = 20000
)

// sweepDef is one sweep workload.
type sweepDef struct {
	name   string
	parsec bool
	// benchName labels the assembled artifact (it is part of the payload).
	benchName string
	// reference loads what each pass's payload must equal.
	reference func(root string) (sweepRef, error)
}

// sweepRef checks a pass's deterministic payload.
type sweepRef func(b *runner.Bench) error

var fig4 = sweepDef{name: "fig4-smoke", benchName: "smoke", reference: baselineRef}
var fig7 = sweepDef{name: "fig7-parsec", parsec: true, benchName: "fig7", reference: goldenRef}

// sweepPlan is a sweep's set-up: the full workload × defense × TSO/RC
// matrix in a seed-shuffled dispatch order.
type sweepPlan struct {
	jobs  []runner.Job
	check sweepRef
}

// consistencies are the sweeps' memory models.
var consistencies = []config.Consistency{config.TSO, config.RC}

func setupSweep(e *env, d sweepDef) (*sweepPlan, error) {
	names := workload.SuiteNames(d.parsec)
	check, err := d.reference(e.root)
	if err != nil {
		return nil, err
	}
	jobs := runner.Matrix(names, d.parsec, consistencies, config.AllDefenses(), nil, sweepWarmup, sweepMeasure)
	rng := rand.New(rand.NewSource(e.seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return &sweepPlan{jobs: jobs, check: check}, nil
}

// onlyModel keeps the jobs (or bench rows) of one consistency model.
func onlyModel(jobs []runner.Job, cm config.Consistency) []runner.Job {
	var out []runner.Job
	for _, j := range jobs {
		if j.Consistency == cm {
			out = append(out, j)
		}
	}
	return out
}

// rowKey identifies a bench row across orders.
func rowKey(r runner.BenchRun) string {
	return fmt.Sprintf("%s/%s/%s/%d", r.Workload, r.Defense, r.Consistency, r.FaultSeed)
}

// baselineRef checks every row of a pass byte-identical to the committed
// BENCH_baseline.json row for the same cell.
func baselineRef(root string) (sweepRef, error) {
	f, err := os.Open(filepath.Join(root, "BENCH_baseline.json"))
	if err != nil {
		return nil, fmt.Errorf("fig4-smoke reference: %w", err)
	}
	defer f.Close()
	base, err := runner.ReadBenchJSON(f)
	if err != nil {
		return nil, fmt.Errorf("fig4-smoke reference: %w", err)
	}
	if base.Warmup != sweepWarmup || base.Measure != sweepMeasure {
		return nil, fmt.Errorf("fig4-smoke reference: baseline budgets %d/%d, want %d/%d", base.Warmup, base.Measure, sweepWarmup, sweepMeasure)
	}
	rows := make(map[string][]byte, len(base.Runs))
	for _, r := range base.Runs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		rows[rowKey(r)] = b
	}
	return func(b *runner.Bench) error {
		for _, r := range b.Runs {
			got, err := json.Marshal(r)
			if err != nil {
				return err
			}
			want, ok := rows[rowKey(r)]
			if !ok {
				return fmt.Errorf("cell %s missing from BENCH_baseline.json", rowKey(r))
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("cell %s differs from BENCH_baseline.json:\n got %s\nwant %s", rowKey(r), got, want)
			}
		}
		return nil
	}, nil
}

// goldenPath holds the Figure-7 payload hash per consistency model.
const goldenPath = "perfbench/golden/fig7.json"

// payloadHash hashes a pass's deterministic payload with rows in matrix
// order, so the hash is independent of the dispatch order.
func payloadHash(b *runner.Bench) (string, error) {
	sorted := *b
	sorted.Runs = append([]runner.BenchRun(nil), b.Runs...)
	order := make(map[string]int)
	for i, w := range workload.SuiteNames(b.Runs[0].Parsec) {
		order[w] = i
	}
	dorder := make(map[string]int)
	for i, d := range config.AllDefenses() {
		dorder[d.String()] = i
	}
	sort.SliceStable(sorted.Runs, func(i, j int) bool {
		a, c := sorted.Runs[i], sorted.Runs[j]
		if order[a.Workload] != order[c.Workload] {
			return order[a.Workload] < order[c.Workload]
		}
		return dorder[a.Defense] < dorder[c.Defense]
	})
	p, err := sorted.DeterministicPayload()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:]), nil
}

// goldenRef checks each pass's payload hash against the committed one.
func goldenRef(root string) (sweepRef, error) {
	raw, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("fig7-parsec reference: %w", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("fig7-parsec reference: %w", err)
	}
	return func(b *runner.Bench) error {
		for _, cm := range consistencies {
			rows := *b
			rows.Runs = nil
			for _, r := range b.Runs {
				if r.Consistency == cm.String() {
					rows.Runs = append(rows.Runs, r)
				}
			}
			if len(rows.Runs) == 0 {
				continue
			}
			got, err := payloadHash(&rows)
			if err != nil {
				return err
			}
			if got != want[cm.String()] {
				return fmt.Errorf("fig7-parsec %s payload hash %s, want %s (%s)", cm, got, want[cm.String()], goldenPath)
			}
		}
		return nil
	}, nil
}

// regenGolden recomputes perfbench/golden/fig7.json from the untraced
// entry point. Run it only when the bench schema changes on purpose.
func regenGolden(e *env) error {
	out := make(map[string]string)
	for _, cm := range consistencies {
		jobs := runner.Matrix(workload.SuiteNames(true), true, []config.Consistency{cm}, config.AllDefenses(), nil, sweepWarmup, sweepMeasure)
		pr, err := runPass(e, fig7.benchName, jobs, nil)
		if err != nil {
			return err
		}
		if out[cm.String()], err = payloadHash(pr.bench); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.root, goldenPath), append(b, '\n'), 0o644)
}

// passResult is one campaign.Run over a pass.
type passResult struct {
	wall     time.Duration
	outcomes []campaign.Outcome
	bench    *runner.Bench
	results  []runner.JobResult
	failed   int
	body     map[string]time.Duration // traced cell-body time by cell name
	counts   counters                 // traced machine counters
}

// runPass runs one pass. With a tracer it replaces the cell body with the
// traced decomposition through campaign's Exec seam.
func runPass(e *env, benchName string, jobs []runner.Job, tr *tracer) (*passResult, error) {
	cells := campaign.JobCells(jobs, engine.KernelFast, 0)
	opts := campaign.Options{Workers: e.workers}
	pr := &passResult{}
	if tr != nil {
		pr.body = make(map[string]time.Duration, len(cells))
		var mu sync.Mutex
		opts.Exec = func(ctx context.Context, c campaign.Cell, key string) (json.RawMessage, error) {
			root := tr.begin("harness.cell", c.Name, 0)
			t0 := time.Now()
			r, m, err := tracedMeasure(ctx, tr, c.Name, root, c.Spec.(campaign.JobSpec))
			body := time.Since(t0)
			tr.end(root)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			pr.body[c.Name] = body
			pr.counts.addMachine(m)
			mu.Unlock()
			return marshal(r)
		}
	}
	t0 := time.Now()
	outcomes, err := campaign.Run(context.Background(), "perfbench-"+benchName, cells, opts)
	pr.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	pr.outcomes = outcomes
	for _, o := range outcomes {
		if o.Err != nil {
			pr.failed++
			fmt.Fprintf(os.Stderr, "perfbench: cell %s failed: %v\n", o.Name, o.Err)
		}
	}
	if pr.results, err = campaign.JobResults(jobs, outcomes); err != nil {
		return nil, err
	}
	pr.bench = runner.NewBench(benchName, jobs[0].Warmup, jobs[0].Measure, pr.results)
	pr.bench.Degraded = campaign.Degraded(outcomes, nil)
	return pr, nil
}

// simInstructions is the pass's simulated instructions retired over all
// cores, the warmup counted at its budget.
func simInstructions(results []runner.JobResult) float64 {
	var n float64
	for _, r := range results {
		if r.Err == nil {
			n += float64(r.Job.Warmup + r.Result.Instructions)
		}
	}
	return n
}

func runSweepWorkload(e *env, d sweepDef) (result, error) {
	var plan *sweepPlan
	setup, err := e.timeSetup(func() error {
		var err error
		plan, err = setupSweep(e, d)
		return err
	})
	if err != nil {
		return result{}, err
	}
	if e.trace {
		return traceSweep(e, d, plan)
	}
	ms := newMetrics()
	var (
		wall      time.Duration
		cellMS    []float64
		instr     float64
		attempted int
		failed    int
		correct   = true
	)
	// Whole passes over the matrix until the measured time is reached.
	for wall < e.seconds {
		pr, err := runPass(e, d.benchName, plan.jobs, nil)
		if err != nil {
			return result{}, err
		}
		wall += pr.wall
		attempted += len(pr.outcomes)
		failed += pr.failed
		for _, o := range pr.outcomes {
			cellMS = append(cellMS, float64(o.HostNS)/1e6)
		}
		instr += simInstructions(pr.results)
		if pr.failed > 0 {
			correct = false
		} else if err := plan.check(pr.bench); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s check failed: %v\n", d.name, err)
			correct = false
		}
	}
	cps := float64(len(cellMS)) / wall.Seconds()
	ms.set("setup_s", "s", setup.Seconds(), setupRuns)
	ms.set("cells_per_s", "1/s", cps, len(cellMS))
	ms.dist("cell_ms", "ms", cellMS, true)
	// On a sweep the submitted job is a runner.Job: one cell.
	ms.set("jobs_per_s", "1/s", cps, len(cellMS))
	ms.dist("job_ms", "ms", cellMS, true)
	ms.set("sim_minstr_per_s", "Minstr/s", instr/1e6/wall.Seconds(), len(cellMS))
	if ms.err != nil {
		return result{}, ms.err
	}
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: ms.m}, nil
}

// traceSweep runs the TSO half of the matrix untraced (the reference and
// the overhead baseline), then the same cells traced, and derives the
// per-layer metrics.
func traceSweep(e *env, d sweepDef, plan *sweepPlan) (result, error) {
	jobs := onlyModel(plan.jobs, config.TSO)
	gc0 := readGC()
	ref, err := runPass(e, d.benchName, jobs, nil)
	if err != nil {
		return result{}, err
	}
	gc1 := readGC()
	tr := newTracer()
	traced, err := runPass(e, d.benchName, jobs, tr)
	if err != nil {
		return result{}, err
	}
	correct := ref.failed == 0 && traced.failed == 0
	if err := sameValues(ref.outcomes, traced.outcomes); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: traced cells differ from the entry point: %v\n", err)
		correct = false
	}
	if correct {
		if err := plan.check(ref.bench); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s check failed: %v\n", d.name, err)
			correct = false
		}
	}
	sp := tr.begin("runner.encode", "", 0)
	var buf bytes.Buffer
	err = runner.WriteBenchJSON(&buf, runner.NewBench(d.benchName, sweepWarmup, sweepMeasure, traced.results))
	tr.end(sp)
	if err != nil {
		return result{}, err
	}
	probe, err := sweepProbe(jobs)
	if err != nil {
		return result{}, err
	}
	lm := layerMetrics{
		tr: tr, counts: traced.counts, workers: e.workers,
		wall: traced.wall, refWall: ref.wall, outcomes: traced.outcomes, body: traced.body,
		gc: gc1.sub(gc0), gcCells: len(ref.outcomes), probe: probe,
	}
	ms := lm.report()
	lm.printShares(os.Stdout)
	if ms.err != nil {
		return result{}, ms.err
	}
	if _, err := tr.write(e.traceDir(), d.name+".jsonl"); err != nil {
		return result{}, err
	}
	n := len(ref.outcomes) + len(traced.outcomes)
	return result{Correct: correct, Attempted: n, Failed: ref.failed + traced.failed, Metrics: ms.m}, nil
}

// sameValues checks two passes over the same cells produced byte-identical
// values.
func sameValues(a, b []campaign.Outcome) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d cells", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Value, b[i].Value) {
			return fmt.Errorf("cell %s:\n untraced %s\n   traced %s", a[i].Name, a[i].Value, b[i].Value)
		}
	}
	return nil
}

// sweepProbe runs the first cells of a pass through the allocation probe.
func sweepProbe(jobs []runner.Job) (allocs, error) {
	var a allocs
	for _, j := range jobs[:min(probeCells, len(jobs))] {
		w, err := workload.Lookup(j.Workload)
		if err != nil {
			return a, err
		}
		cores := w.DefaultCores()
		progs, err := w.Programs(cores)
		if err != nil {
			return a, err
		}
		run := config.Run{Machine: config.Default(cores), Defense: j.Defense, Consistency: j.Consistency}
		n := j.Warmup + j.Measure
		err = a.probe(run, progs, func(m *sim.Machine) error {
			m.SetKernel(engine.KernelFast)
			return m.RunInstructions(n, n*budgetPerInstruction)
		})
		if err != nil {
			return a, err
		}
	}
	return a, nil
}
