package campaign

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/runner"
)

// benchJSON renders a bench artifact the way the CLIs and the server do.
func benchJSON(t *testing.T, b *runner.Bench) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := runner.WriteBenchJSON(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunBenchDeterminism is the worker-count gate on the one assembly
// path: a 4-worker RunBench writes byte-identical bench JSON to a 1-worker
// RunBench over the same matrix, even though the 4-worker completion order
// is scheduler-dependent.
func TestRunBenchDeterminism(t *testing.T) {
	s := BenchSweep{
		Campaign: "determinism", Name: "determinism", Warmup: 2000, Measure: 4000,
		Jobs: runner.Matrix([]string{"sjeng", "libquantum"}, false,
			[]config.Consistency{config.TSO}, config.AllDefenses(), nil, 2000, 4000),
		Kernel: engine.KernelFast,
	}
	artifact := func(workers int) []byte {
		b, results, _, err := RunBench(context.Background(), s, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.FirstError(results); err != nil {
			t.Fatal(err)
		}
		return benchJSON(t, b)
	}
	serial, parallel := artifact(1), artifact(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("bench JSON differs between 1-worker and 4-worker runs:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestRunBenchCellTimeout drives a real bench cell into its wall-clock
// deadline: the expiry surfaces as context.DeadlineExceeded from inside the
// simulation loop, classes as transient, and — with no retries left — lands
// in the artifact's degraded block with its repro command, while the
// untimed cell beside it completes.
func TestRunBenchCellTimeout(t *testing.T) {
	base := runner.Job{Workload: "sjeng", Defense: config.Base, Consistency: config.TSO,
		Warmup: 2000, Measure: 4000}
	timed := base
	timed.Consistency = config.RC
	timed.Timeout = time.Nanosecond
	s := BenchSweep{
		Campaign: "timeout", Name: "timeout", Warmup: 2000, Measure: 4000,
		Jobs: []runner.Job{timed, base}, Kernel: engine.KernelFast,
		Repro: func(j runner.Job) string { return "repro " + j.String() },
	}
	b, results, outcomes, err := RunBench(context.Background(), s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := outcomes[0].Err; !errors.Is(err, context.DeadlineExceeded) ||
		!strings.Contains(err.Error(), "warmup window") {
		t.Fatalf("timed-out cell error = %v, want DeadlineExceeded from the warmup window", err)
	}
	if outcomes[0].Class != ClassTransient {
		t.Fatalf("timed-out cell class = %s, want transient", outcomes[0].Class)
	}
	if results[1].Err != nil || results[1].Result.Instructions == 0 {
		t.Fatalf("untimed cell: err %v, %d instructions", results[1].Err, results[1].Result.Instructions)
	}
	if len(b.Degraded) != 1 || b.Degraded[0].Name != timed.String() ||
		b.Degraded[0].Class != ClassTransient.String() || b.Degraded[0].Repro != "repro "+timed.String() {
		t.Fatalf("degraded block = %+v, want the timed-out cell with its repro", b.Degraded)
	}
	if b.Runs[0].Error == "" || b.Runs[1].Error != "" {
		t.Fatalf("bench runs: timed-out error %q, untimed error %q", b.Runs[0].Error, b.Runs[1].Error)
	}
}
