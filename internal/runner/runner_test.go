package runner

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"invisispec/internal/config"
	"invisispec/internal/harness"
)

// measureMatrix measures a small but real matrix serially — 2 SPEC kernels
// x TSO x every registered defense — for the bench-schema tests. The
// parallel path over the same matrix is campaign.RunBench, tested there.
func measureMatrix(t *testing.T) []JobResult {
	t.Helper()
	jobs := Matrix([]string{"sjeng", "libquantum"}, false,
		[]config.Consistency{config.TSO}, config.AllDefenses(), nil, 2000, 4000)
	results := make([]JobResult, len(jobs))
	for i, j := range jobs {
		res, err := harness.MeasureWorkload(j.Workload, j.Defense, j.Consistency, j.Warmup, j.Measure)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = JobResult{Job: j, Index: i, Result: res}
	}
	return results
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base (plus runtime slack) or the deadline passes.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 { // slack for runtime-internal goroutines
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBenchJSONRoundTrip checks schema validation and the normalized-time
// grouping.
func TestBenchJSONRoundTrip(t *testing.T) {
	results := measureMatrix(t)
	b := NewBench("roundtrip", 2000, 4000, results).WithHost(time.Second, 4, results)
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(results) {
		t.Fatalf("round-trip kept %d runs, want %d", len(got.Runs), len(results))
	}
	if got.Host == nil || got.Host.Jobs != 4 || len(got.Host.PerRunMS) != len(results) {
		t.Fatal("host block did not round-trip")
	}
	byKey := got.RunsByKey()
	for _, r := range got.Runs {
		if r.Defense == config.Base.String() && r.NormalizedTime != 1.0 {
			t.Fatalf("Base run %s normalizes to %v, want 1", r.RunKey(), r.NormalizedTime)
		}
		if r.NormalizedTime <= 0 {
			t.Fatalf("run %s has no normalized time", r.RunKey())
		}
	}
	if len(byKey) != len(results) {
		t.Fatalf("run keys collide: %d unique for %d runs", len(byKey), len(results))
	}
	if _, err := ReadBenchJSON(strings.NewReader(`{"schema":"bogus/v0"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
}
