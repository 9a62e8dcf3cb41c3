// Command perfbench is the host-performance benchmark of the InvisiSpec
// simulator. It runs one named workload from a single process, checks the
// workload's outputs, and prints its metrics; the last line of stdout is
// the JSON verdict. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload fig4-smoke --seed 1 --seconds 12 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"invisispec/internal/workload"
)

// maxWorkers caps campaign workers and closed-loop clients: the simulator
// is single-goroutine per cell, and the reference host has two CPUs.
const maxWorkers = 2

// setupRuns is how many times a run repeats its set-up; setup_s is the
// median.
const setupRuns = 25

// env is one benchmark run's settings and sandbox.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workers int
	root    string // checkout root: tracked inputs are read from here
	sandbox string // fresh per run; every data directory lives inside it
}

// traceDir is where a traced run writes its spans.
func (e *env) traceDir() string {
	return filepath.Join(e.root, ".bench_build", "perfbench-traces")
}

// timeSetup runs set-up setupRuns times and returns the median duration.
// Every set-up first builds every registered workload's programs (the
// registry and program generation a process pays before its first cell),
// then the workload's own set-up. Each starts from a collected heap, as a
// fresh process does, so whether the collector runs inside it does not
// depend on the set-ups before it.
func (e *env) timeSetup(setup func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := buildPrograms(); err != nil {
			return 0, err
		}
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

var workloads = map[string]func(*env) (result, error){
	"fig4-smoke":  func(e *env) (result, error) { return runSweepWorkload(e, fig4) },
	"fig7-parsec": func(e *env) (result, error) { return runSweepWorkload(e, fig7) },
	"leak-smoke":  runLeakWorkload,
	"serve-memo":  runServeWorkload,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: fig4-smoke, fig7-parsec, leak-smoke or serve-memo")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 12, "measured time per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		regen   = flag.Bool("regen-golden", false, "recompute perfbench/golden/fig7.json and exit")
	)
	flag.Parse()
	root, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		workers: min(maxWorkers, runtime.NumCPU()), root: root}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return fail(err)
	}
	if e.sandbox, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "perfbench-sandbox-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.sandbox)
	if *regen {
		if err := regenGolden(e); err != nil {
			return fail(err)
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("usage: --workload %s --seed N --seconds S --trace 0|1", strings.Join(workloadNames(), "|")))
	}
	r, err := wl(e)
	if err != nil {
		return fail(err)
	}
	if e.trace {
		fr, err := failRatio(r.Attempted, r.Failed)
		if err != nil {
			return fail(err)
		}
		ms := &metrics{m: r.Metrics}
		ms.set("bench.fail_ratio", "ratio", fr, r.Attempted)
		if ms.err != nil {
			return fail(ms.err)
		}
	}
	fmt.Printf("perfbench %s seed=%d trace=%d workers=%d attempted=%d failed=%d correct=%s\n",
		*name, e.seed, *trace, e.workers, r.Attempted, r.Failed, strconv.FormatBool(r.Correct))
	if err := emit(r); err != nil {
		return fail(err)
	}
	if !r.Correct {
		return 1
	}
	return 0
}

// buildPrograms generates the programs of every registered workload.
func buildPrograms() error {
	for _, w := range workload.All() {
		if _, err := w.Programs(w.DefaultCores()); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name(), err)
		}
	}
	return nil
}

func workloadNames() []string {
	return []string{"fig4-smoke", "fig7-parsec", "leak-smoke", "serve-memo"}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

// peakRSSMB is the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
