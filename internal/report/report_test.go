package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"invisispec/internal/runner"
)

func loadBaseline(t *testing.T) *runner.Bench {
	t.Helper()
	f, err := os.Open("../../BENCH_baseline.json")
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	defer f.Close()
	b, err := runner.ReadBenchJSON(f)
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	return b
}

func TestRenderIndex(t *testing.T) {
	var sb strings.Builder
	d := IndexData{
		Jobs: []JobRow{
			{ID: "j1", Type: "sweep", Name: "smoke", State: "done", Completed: 70, Total: 70, CacheHits: 70},
			{ID: "j2", Type: "leakscan", Name: "x<y", State: "failed", Error: "boom <script>"},
		},
		Metrics:   MetricsView{HitRate: 0.5, Hits: 7, Misses: 7, Entries: 14, WorkersTotal: 4},
		HasTrends: true,
	}
	if err := RenderIndex(&sb, d); err != nil {
		t.Fatalf("RenderIndex: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"<!doctype html>", "/jobs/j1", "50.0%", "x&lt;y", "boom &lt;script&gt;",
		"href=\"/trends\"", "prefers-color-scheme: dark",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("index page missing %q", want)
		}
	}
	if strings.Contains(out, "<script>") {
		t.Error("unescaped script tag in output")
	}
}

func TestRenderJobBench(t *testing.T) {
	b := loadBaseline(t)
	page := JobPage{
		Job:   JobRow{ID: "j1", Type: "sweep", Name: b.Name, State: "done", Total: len(b.Runs)},
		Bench: b,
	}
	var sb strings.Builder
	if err := RenderJob(&sb, page); err != nil {
		t.Fatalf("RenderJob: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"Normalized execution time — TSO", "Defense comparison", "IS-Fu", "?cell=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("job page missing %q", want)
		}
	}

	// Drilldown: pick the first run's key and re-render.
	key := b.Runs[0].RunKey()
	page.Cell = key
	sb.Reset()
	if err := RenderJob(&sb, page); err != nil {
		t.Fatalf("RenderJob with cell: %v", err)
	}
	if !strings.Contains(sb.String(), "Cell "+key) {
		t.Errorf("drilldown pane missing for %q", key)
	}
}

// writeHistory writes one BENCH_<file>.json artifact per entry of avgs into
// dir: a single TSO workload whose per-defense normalized times are the
// given values, so each artifact's averages are known exactly.
func writeHistory(t *testing.T, dir string, avgs map[string][2]float64) {
	t.Helper()
	for file, v := range avgs {
		b := &runner.Bench{Schema: runner.BenchSchema, Name: file, Runs: []runner.BenchRun{
			{Workload: "sjeng", Defense: "Base", Consistency: "TSO", NormalizedTime: v[0]},
			{Workload: "sjeng", Defense: "IS-Fu", Consistency: "TSO", NormalizedTime: v[1]},
			{Workload: "sjeng", Defense: "IS-Fu", Consistency: "RC", NormalizedTime: 9},
		}}
		f, err := os.Create(filepath.Join(dir, "BENCH_"+file+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.WriteBenchJSON(f, b); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// renderHistory loads dir's history, checks it against the averages it was
// written with, and renders the trends page.
func renderHistory(t *testing.T, dir string, avgs map[string][2]float64) string {
	t.Helper()
	hist, err := LoadHistory(dir)
	if err != nil {
		t.Fatalf("LoadHistory: %v", err)
	}
	if len(hist) != len(avgs) {
		t.Fatalf("LoadHistory found %d points, want %d", len(hist), len(avgs))
	}
	for i, h := range hist {
		if i > 0 && hist[i-1].File >= h.File {
			t.Errorf("history not sorted by file: %s before %s", hist[i-1].File, h.File)
		}
		want := avgs[strings.TrimSuffix(strings.TrimPrefix(h.File, "BENCH_"), ".json")]
		if len(h.Defenses) != 2 || h.Avg["Base"] != want[0] || h.Avg["IS-Fu"] != want[1] {
			t.Errorf("history point %s: defenses %v averages %v, want TSO-only %v", h.File, h.Defenses, h.Avg, want)
		}
	}
	var sb strings.Builder
	if err := RenderTrends(&sb, hist); err != nil {
		t.Fatalf("RenderTrends: %v", err)
	}
	return sb.String()
}

func TestLoadHistoryAndRenderTrends(t *testing.T) {
	dir := t.TempDir()
	avgs := map[string][2]float64{"a": {1, 1.4}, "b": {1, 1.2}, "c": {1, 1.1}}
	writeHistory(t, dir, avgs)
	out := renderHistory(t, dir, avgs)
	for _, want := range []string{"<svg", "<polyline", "<circle", "Table view", "var(--s1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("trends page missing %q", want)
		}
	}
	// One line per defense series, one marker per (series, point).
	if n := strings.Count(out, "<polyline"); n != 2 {
		t.Errorf("trends page draws %d polylines, want 2", n)
	}
	if n := strings.Count(out, "<circle"); n != 6 {
		t.Errorf("trends page draws %d markers, want 6", n)
	}
}

// A single artifact has nothing to connect: markers, no lines.
func TestRenderTrendsSinglePoint(t *testing.T) {
	dir := t.TempDir()
	avgs := map[string][2]float64{"only": {1, 1.3}}
	writeHistory(t, dir, avgs)
	out := renderHistory(t, dir, avgs)
	if !strings.Contains(out, "<svg") {
		t.Error("trends page missing its chart")
	}
	if n := strings.Count(out, "<circle"); n != 2 {
		t.Errorf("single-point chart draws %d markers, want 2", n)
	}
	if strings.Contains(out, "<polyline") {
		t.Error("single-point chart draws a line")
	}
}

func TestRenderTrendsEmpty(t *testing.T) {
	var sb strings.Builder
	if err := RenderTrends(&sb, nil); err != nil {
		t.Fatalf("RenderTrends(nil): %v", err)
	}
	if !strings.Contains(sb.String(), "No BENCH_") {
		t.Error("empty-history message missing")
	}
}
