package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// p90 of 100 samples is rank 90, with exactly 10 beyond it.
	v, err := percentile(seq(100), 0.9)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	// 99 samples leave only 9 beyond rank 90.
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples accepted with 9 beyond it")
	}
	// p99 needs 1000 samples.
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
}

func TestMedianNearestRank(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2},
		{nil, 0},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples accepted")
	}
}

func TestMetricNames(t *testing.T) {
	good := []string{"setup_s", "cell_ms_p90", "sim.new_ms_p50", "go.gc-cycles", "9lives", strings.Repeat("a", 64)}
	bad := []string{"", "_x", ".x", "-x", "a b", "a/b", "ms%", "é", strings.Repeat("a", 65)}
	for _, n := range good {
		if !validName(n) {
			t.Errorf("validName(%q) = false", n)
		}
	}
	for _, n := range bad {
		if validName(n) {
			t.Errorf("validName(%q) = true", n)
		}
	}
	for _, u := range []string{"ms", "s", "1/s", "count", "%", "Minstr/s", "1/kinstr"} {
		if !validUnit(u) {
			t.Errorf("validUnit(%q) = false", u)
		}
	}
	for _, u := range []string{"", "m s", strings.Repeat("u", 17)} {
		if validUnit(u) {
			t.Errorf("validUnit(%q) = true", u)
		}
	}
}

func TestMetricsRejectsBadAndDuplicateNames(t *testing.T) {
	ms := newMetrics()
	ms.set("ok", "ms", 1, 0)
	if ms.err != nil {
		t.Fatal(ms.err)
	}
	ms.set("ok", "ms", 2, 0)
	if ms.err == nil {
		t.Fatal("duplicate metric accepted")
	}
	ms = newMetrics()
	ms.set("bad name", "ms", 1, 0)
	if ms.err == nil {
		t.Fatal("bad metric name accepted")
	}
	ms = newMetrics()
	ms.dist("lat", "ms", seq(50), true)
	if ms.err == nil {
		t.Fatal("p90 of 50 samples reported")
	}
}

func TestFailRatio(t *testing.T) {
	for _, tc := range []struct {
		attempted, failed int
		want              float64
	}{
		{1, 0, 0},
		{4, 1, 0.25},
		{322, 322, 1},
	} {
		got, err := failRatio(tc.attempted, tc.failed)
		if err != nil || got != tc.want {
			t.Errorf("failRatio(%d, %d) = %v, %v; want %v", tc.attempted, tc.failed, got, err, tc.want)
		}
	}
	for _, tc := range [][2]int{{0, 0}, {3, 4}, {3, -1}} {
		if _, err := failRatio(tc[0], tc[1]); err == nil {
			t.Errorf("failRatio(%d, %d) accepted", tc[0], tc[1])
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{ID: 1, Name: "harness.cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.new", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "sim.run", Start: 30, End: 90},
		{ID: 4, Name: "open", Start: 0, End: -1},
	}
	self := tr.selfMS()
	if got := self["harness.cell"] * 1e6; got != 20 {
		t.Errorf("cell self time %v ns, want 20", got)
	}
	if got := tr.sumMS("sim.run") * 1e6; got != 60 {
		t.Errorf("sim.run %v ns, want 60", got)
	}
	if n := len(tr.byName("open")); n != 0 {
		t.Errorf("unclosed span reported %d times", n)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", "", 0)) // must not panic
}
