package sim_test

// Per-layer host-time benchmarks (`make perf`). BenchmarkSimNew measures
// cell construction alone: program-image load plus core and hierarchy
// allocation. BenchmarkCoreTick measures the cycle loop alone (construction
// is outside the timer) under both kernels, on a memory-bound kernel (mcf),
// a compute-bound one (hmmer) and an eight-core PARSEC kernel (canneal).
// Host time is the metric here; simulated results are gated elsewhere.
// BenchmarkCoreTick also reports ns/ticked-cycle: host time per machine
// cycle the kernel actually ticked (fast-forwarded cycles excluded), the
// quantity perfbench reports as engine.ns_per_ticked_cycle.

import (
	"testing"

	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
	"invisispec/internal/workload"
)

// tickInstrs is the instruction budget of one BenchmarkCoreTick iteration
// (retired instructions summed over all cores).
const tickInstrs = 30_000

func benchCell(name string, parsec bool) (config.Run, []*isa.Program) {
	progs := []*isa.Program{}
	cores := 1
	if parsec {
		cores = 8
		progs = workload.MustPARSEC(name, cores)
	} else {
		progs = append(progs, workload.MustSPEC(name))
	}
	return config.Run{Machine: config.Default(cores), Defense: config.Base, Consistency: config.TSO}, progs
}

func BenchmarkSimNew(b *testing.B) {
	for _, w := range []struct {
		name   string
		parsec bool
	}{{"hmmer", false}, {"canneal", true}} {
		run, progs := benchCell(w.name, w.parsec)
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim.MustNew(run, progs)
			}
		})
	}
}

func BenchmarkCoreTick(b *testing.B) {
	for _, w := range []struct {
		name   string
		parsec bool
	}{{"mcf", false}, {"hmmer", false}, {"canneal", true}} {
		run, progs := benchCell(w.name, w.parsec)
		for _, k := range []engine.Kernel{engine.KernelFast, engine.KernelStepped} {
			b.Run(w.name+"/"+k.String(), func(b *testing.B) {
				var instrs, cycles, skipped uint64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m := sim.MustNew(run, progs)
					m.SetKernel(k)
					b.StartTimer()
					if err := m.RunInstructions(tickInstrs, 50_000_000); err != nil {
						b.Fatal(err)
					}
					instrs += m.Stats.TotalRetired()
					cycles += m.Cycle()
					_, sk := m.FastForwardStats()
					skipped += sk
				}
				b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instr/s")
				b.ReportMetric(100*float64(skipped)/float64(cycles), "skip%")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles-skipped), "ns/ticked-cycle")
			})
		}
	}
}
