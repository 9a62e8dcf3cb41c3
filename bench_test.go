// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table/figure (DESIGN.md §3). Each run reports paper-comparable custom
// metrics:
//
//	cyc/instr    cycles per instruction (Figures 4 and 7 bars are the
//	             ratio of a config's cyc/instr to Base's)
//	B/instr      NoC+memory bytes per instruction (Figures 6 and 8)
//	spec-B/i     bytes from Spec-GetS transactions
//	ve-B/i       bytes from expose/validate transactions
//
// The instruction budgets are kept small so `go test -bench=.` finishes in
// minutes; cmd/benchtable runs the full-size sweeps and prints the figures
// directly.
package invisispec_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/hwcost"
	"invisispec/internal/isa"
	"invisispec/internal/runner"
	"invisispec/internal/sim"
	"invisispec/internal/stats"
	"invisispec/internal/workload"
)

const (
	benchWarmup  = 10000
	benchMeasure = 25000
)

func reportRun(b *testing.B, r harness.Result) {
	b.ReportMetric(r.CPI(), "cyc/instr")
	b.ReportMetric(float64(r.TotalTraffic())/float64(r.Instructions), "B/instr")
	b.ReportMetric(float64(r.Traffic[stats.TrafficSpecLoad])/float64(r.Instructions), "spec-B/i")
	b.ReportMetric(float64(r.Traffic[stats.TrafficValExp])/float64(r.Instructions), "ve-B/i")
	b.ReportMetric(0, "ns/op") // simulated time is the metric, not host time
}

// runJobs measures a job matrix through the campaign layer — the same
// path cmd/benchtable uses, so the benches exercise what the figures
// measure — and fails the benchmark on any cell error.
func runJobs(b *testing.B, jobs []runner.Job, workers int) []runner.JobResult {
	b.Helper()
	outcomes, err := campaign.Run(context.Background(), "bench",
		campaign.JobCells(jobs, engine.KernelFast, 0), campaign.Options{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	results, err := campaign.JobResults(jobs, outcomes)
	if err != nil {
		b.Fatal(err)
	}
	if err := runner.FirstError(results); err != nil {
		b.Fatal(err)
	}
	return results
}

// benchSuite runs workload x defense sub-benchmarks for one suite, each a
// one-job matrix through runJobs.
func benchSuite(b *testing.B, names []string, parsec bool) {
	for _, name := range names {
		for _, d := range config.AllDefenses() {
			b.Run(fmt.Sprintf("%s/%s", name, d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					jobs := []runner.Job{{
						Workload: name, Parsec: parsec, Defense: d,
						Consistency: config.TSO,
						Warmup:      benchWarmup, Measure: benchMeasure,
					}}
					reportRun(b, runJobs(b, jobs, 1)[0].Result)
				}
			})
		}
	}
}

// BenchmarkRunnerFig4 runs the full Figure-4 TSO matrix (all SPEC kernels x
// every registered defense) through the campaign worker pool. Host time is
// the metric: run with -cpu 1,4,8 to see the pool's wall-clock scaling on
// the exact workload the figure generator shards.
func BenchmarkRunnerFig4(b *testing.B) {
	jobs := runner.Matrix(workload.SPECNames(), false,
		[]config.Consistency{config.TSO}, config.AllDefenses(), nil,
		benchWarmup, benchMeasure)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runJobs(b, jobs, runtime.GOMAXPROCS(0))
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkFig4SPECTime regenerates Figure 4: per-kernel execution cost
// under the five Table V configurations (TSO). The same runs yield the
// Figure 6 traffic metrics.
func BenchmarkFig4SPECTime(b *testing.B) {
	benchSuite(b, workload.SPECNames(), false)
}

// BenchmarkFig7PARSECTime regenerates Figure 7 (and Figure 8's traffic
// metrics): the nine PARSEC-like kernels on the 8-core machine.
func BenchmarkFig7PARSECTime(b *testing.B) {
	benchSuite(b, workload.PARSECNames(), true)
}

// BenchmarkFig5Attack regenerates Figure 5: the Spectre PoC's probe-latency
// gap on Base, and its absence under IS-Sp. Metrics: secret-line and
// median probe latencies in cycles.
func BenchmarkFig5Attack(b *testing.B) {
	const secret = 84
	for _, d := range []config.Defense{config.Base, config.ISSpectre} {
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := config.Run{Machine: config.Default(1), Defense: d, Consistency: config.TSO}
				m := sim.MustNew(run, []*isa.Program{workload.SpectreV1(secret)})
				if err := m.RunToCompletion(30_000_000); err != nil {
					b.Fatal(err)
				}
				lat := workload.SpectreScanLatencies(m.Mem)
				b.ReportMetric(float64(lat[secret]), "secret-cyc")
				var sum float64
				for _, l := range lat {
					sum += float64(l)
				}
				b.ReportMetric(sum/float64(len(lat)), "mean-cyc")
				b.ReportMetric(0, "ns/op")
			}
		})
	}
}

// BenchmarkTable6Characterization reports the Table VI statistics for a
// representative kernel subset under IS-Sp and IS-Fu (TSO): exposure
// share, validation L1-hit share, squashes per 1M instructions, and the
// LLC-SB hit rate.
func BenchmarkTable6Characterization(b *testing.B) {
	names := []string{"sjeng", "libquantum", "omnetpp"}
	for _, name := range names {
		for _, d := range []config.Defense{config.ISSpectre, config.ISFuture} {
			b.Run(fmt.Sprintf("%s/%s", name, d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := harness.MeasureSPEC(name, d, config.TSO, benchWarmup, benchMeasure)
					if err != nil {
						b.Fatal(err)
					}
					c := r.Core
					ve := float64(c.Exposures + c.Validations())
					if ve == 0 {
						ve = 1
					}
					b.ReportMetric(100*float64(c.Exposures)/ve, "expo%")
					b.ReportMetric(100*float64(c.ValidationsL1Hit)/ve, "valL1hit%")
					b.ReportMetric(c.SquashesPerMInst(), "sq/Minst")
					b.ReportMetric(100*r.LLCSBRate, "llcsb%")
					b.ReportMetric(0, "ns/op")
				}
			})
		}
	}
}

// BenchmarkTable7Hardware reports the analytical hardware-cost estimates
// for the two added structures.
func BenchmarkTable7Hardware(b *testing.B) {
	m := config.Default(1)
	for _, arr := range []hwcost.Array{hwcost.L1SB(m), hwcost.LLCSB(m)} {
		arr := arr
		b.Run(arr.Name, func(b *testing.B) {
			var e hwcost.Estimate
			for i := 0; i < b.N; i++ {
				e = arr.Estimate()
			}
			b.ReportMetric(e.AreaMM2*1000, "area-um2x1000")
			b.ReportMetric(e.AccessPS, "access-ps")
			b.ReportMetric(e.ReadPJ, "read-pJ")
			b.ReportMetric(e.LeakMW, "leak-mW")
		})
	}
}

// BenchmarkTable3SBPrimitives grounds Table III: the Speculative Buffer's
// primitive operations (fill an entry, validate an entry against incoming
// data, copy entry to entry) are simple line-sized moves and compares.
func BenchmarkTable3SBPrimitives(b *testing.B) {
	var sb [32][64]byte
	incoming := [64]byte{1: 7, 13: 9}
	mask := uint64(0x00FF)
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sb[i%32] = incoming
		}
	})
	b.Run("validate", func(b *testing.B) {
		match := true
		for i := 0; i < b.N; i++ {
			e := &sb[i%32]
			for bit := 0; bit < 64; bit++ {
				if mask&(1<<bit) != 0 && e[bit] != incoming[bit] {
					match = false
				}
			}
		}
		_ = match
	})
	b.Run("copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sb[(i+1)%32] = sb[i%32]
		}
	})
}

// BenchmarkAblations quantifies the design choices DESIGN.md §5 lists by
// disabling each InvisiSpec mechanism on a memory-intensive kernel under
// IS-Fu/TSO and reporting the resulting cycles per instruction.
func BenchmarkAblations(b *testing.B) {
	mods := []struct {
		name string
		mod  func(*config.Machine)
	}{
		{"paper-design", func(m *config.Machine) {}},
		{"no-LLC-SB", func(m *config.Machine) { m.LLCSBEnabled = false }},
		{"no-VtoE-transform", func(m *config.Machine) { m.VToETransform = false }},
		{"no-early-squash", func(m *config.Machine) { m.EarlySquash = false }},
		{"no-SB-reuse", func(m *config.Machine) { m.SBReuse = false }},
		{"no-overlap", func(m *config.Machine) { m.OverlapValExp = false }},
		{"with-hw-prefetch", func(m *config.Machine) { m.HWPrefetch = true }},
		{"safe-load-annotations", func(m *config.Machine) { m.TrustSafeAnnotations = true }},
	}
	for _, mm := range mods {
		b.Run(mm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				machine := config.Default(1)
				mm.mod(&machine)
				run := config.Run{Machine: machine, Defense: config.ISFuture, Consistency: config.TSO}
				prog := workload.MustSPEC("libquantum")
				r, err := harness.Measure(run, "libquantum", []*isa.Program{prog}, benchWarmup, benchMeasure)
				if err != nil {
					b.Fatal(err)
				}
				reportRun(b, r)
			}
		})
	}
}

// BenchmarkKernelFastForward measures host wall-time of the two simulation
// kernels on a memory-bound workload (mcf: dependent pointer chase, mostly
// DRAM-latency-bound), where the quiescence-aware scheduler should skip the
// bulk of simulated cycles. Compare the fast and stepped sub-benchmarks'
// ns/op directly; the skip%% metric reports the fraction of simulated cycles
// the fast kernel jumped over. internal/sim's BenchmarkCoreTick splits the
// same comparison per workload with cell construction outside the timer.
func BenchmarkKernelFastForward(b *testing.B) {
	prog := workload.MustSPEC("mcf")
	run := config.Run{Machine: config.Default(1), Defense: config.Base, Consistency: config.TSO}
	for _, k := range []engine.Kernel{engine.KernelFast, engine.KernelStepped} {
		b.Run(k.String(), func(b *testing.B) {
			var cycles, skipped uint64
			for i := 0; i < b.N; i++ {
				m := sim.MustNew(run, []*isa.Program{prog})
				m.SetKernel(k)
				if err := m.RunInstructions(benchWarmup+benchMeasure, 50_000_000); err != nil {
					b.Fatal(err)
				}
				cycles += m.Cycle()
				_, sk := m.FastForwardStats()
				skipped += sk
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "sim-cyc/op")
			b.ReportMetric(100*float64(skipped)/float64(cycles), "skip%")
		})
	}
}

// BenchmarkSimulatorSpeed reports raw simulator throughput (host-time
// metric is meaningful here, unlike the figure benches).
func BenchmarkSimulatorSpeed(b *testing.B) {
	prog := workload.MustSPEC("hmmer")
	run := config.Run{Machine: config.Default(1), Defense: config.Base, Consistency: config.TSO}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m := sim.MustNew(run, []*isa.Program{prog})
		if err := m.RunInstructions(50000, 50_000_000); err != nil {
			b.Fatal(err)
		}
		instrs += m.Stats.TotalRetired()
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instr/s")
}
