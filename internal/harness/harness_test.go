package harness_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/runner"
	"invisispec/internal/stats"
)

// Sweep runs one workload under every registered defense scheme for a
// consistency model and returns results keyed by defense. It is the serial
// test oracle: one measurement at a time, in defense order, on the calling
// goroutine, with no pool, journal or campaign in the way.
func Sweep(name string, cm config.Consistency, warmup, measure uint64) (map[config.Defense]harness.Result, error) {
	out := make(map[config.Defense]harness.Result, len(config.AllDefenses()))
	for _, d := range config.AllDefenses() {
		r, err := harness.MeasureWorkload(name, d, cm, warmup, measure)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, d, err)
		}
		out[d] = r
	}
	return out, nil
}

// TestSweepMatchesSerialSweep pins the production fan-out to the serial
// oracle: the same matrix through campaign.Run at 4 workers must aggregate
// to exactly what Sweep computes.
func TestSweepMatchesSerialSweep(t *testing.T) {
	want, err := Sweep("sjeng", config.TSO, 2000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	jobs := runner.Matrix([]string{"sjeng"}, false, []config.Consistency{config.TSO},
		config.AllDefenses(), nil, 2000, 4000)
	outcomes, err := campaign.Run(context.Background(), "serial-oracle",
		campaign.JobCells(jobs, engine.KernelFast, 0), campaign.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	results, err := campaign.JobResults(jobs, outcomes)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[config.Defense]harness.Result, len(results))
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		got[r.Job.Defense] = r.Result
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("4-worker campaign matrix disagrees with the serial Sweep")
	}
}

func TestMeasureDeltasExcludeWarmup(t *testing.T) {
	r, err := harness.MeasureSPEC("hmmer", config.Base, config.TSO, 5000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions < 10000-64 { // retire-width slop at the boundary
		t.Fatalf("measured %d instructions, want ~10000", r.Instructions)
	}
	if r.Instructions > 12000 {
		t.Fatalf("measured %d instructions: warmup leaked into the window", r.Instructions)
	}
	if r.Cycles == 0 || r.TotalTraffic() == 0 {
		t.Fatal("empty measurement")
	}
	if r.CPI() <= 0 {
		t.Fatal("CPI must be positive")
	}
}

func TestSweepShape(t *testing.T) {
	// The paper's headline ordering on a single kernel: Base is fastest;
	// InvisiSpec beats the corresponding fence design.
	res, err := Sweep("sjeng", config.TSO, 5000, 15000)
	if err != nil {
		t.Fatal(err)
	}
	norm := harness.NormalizedTime(res)
	if norm[config.Base] != 1.0 {
		t.Fatalf("Base normalizes to %f", norm[config.Base])
	}
	if norm[config.ISSpectre] >= norm[config.FenceSpectre] {
		t.Errorf("IS-Sp (%.2f) not faster than Fe-Sp (%.2f)",
			norm[config.ISSpectre], norm[config.FenceSpectre])
	}
	if norm[config.ISFuture] >= norm[config.FenceFuture] {
		t.Errorf("IS-Fu (%.2f) not faster than Fe-Fu (%.2f)",
			norm[config.ISFuture], norm[config.FenceFuture])
	}
	// Traffic shape on a memory-intensive kernel: InvisiSpec produces
	// Spec-GetS and expose/validate traffic above the baseline.
	mres, err := Sweep("libquantum", config.TSO, 5000, 15000)
	if err != nil {
		t.Fatal(err)
	}
	is := mres[config.ISFuture]
	if is.Traffic[stats.TrafficSpecLoad] == 0 {
		t.Error("IS-Fu produced no Spec-GetS traffic")
	}
	// Validations happen even when they all hit the L1 (traffic-free).
	if is.Core.Exposures+is.Core.Validations() == 0 {
		t.Error("IS-Fu performed no validations or exposures")
	}
	if mres[config.Base].Traffic[stats.TrafficSpecLoad] != 0 {
		t.Error("Base produced Spec-GetS traffic")
	}
	tr := harness.NormalizedTraffic(mres)
	if tr[config.ISFuture] <= 1.0 {
		t.Errorf("IS-Fu normalized traffic %.2f not above Base", tr[config.ISFuture])
	}
}

func TestMeasurePARSEC(t *testing.T) {
	r, err := harness.MeasurePARSEC("canneal", config.ISSpectre, config.TSO, 8000, 16000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions < 16000-100 { // retire-width overshoot at the warmup boundary
		t.Fatalf("measured %d instructions", r.Instructions)
	}
	// canneal's spin loads sit behind data-dependent branches, so IS-Sp
	// must classify loads as USLs.
	if r.Core.USLsIssued == 0 && r.Core.SBReuseHits == 0 {
		t.Error("IS-Sp run issued no USLs")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := harness.MeasureSPEC("nope", config.Base, config.TSO, 10, 10); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := harness.MeasurePARSEC("nope", config.Base, config.TSO, 10, 10); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
