package main

// Per-layer figures for the traced run. Every workload reports every
// per-layer metric; a layer the workload does not exercise reads 0.

import (
	"fmt"
	"io"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/sim"
)

// probeCells is how many cells the allocation probe runs serially.
const probeCells = 6

// allocs attributes heap allocation to sim.New and to the run loop, from
// cells run serially with runtime.ReadMemStats around each call.
type allocs struct {
	cells      int
	newB, runB uint64
}

// probe builds one machine and runs it, measuring each call's allocation.
func (a *allocs) probe(r config.Run, progs []*isa.Program, run func(*sim.Machine) error) error {
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	m, err := sim.New(r, progs)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	if err := run(m); err != nil {
		return err
	}
	runtime.ReadMemStats(&m2)
	a.cells++
	a.newB += m1.TotalAlloc - m0.TotalAlloc
	a.runB += m2.TotalAlloc - m1.TotalAlloc
	return nil
}

// gcStats is a snapshot of the Go runtime's allocation and GC counters.
type gcStats struct {
	alloc    uint64  // cumulative heap bytes allocated
	cycles   uint32  // completed GC cycles
	gcCPU    float64 // CPU seconds spent in GC
	totalCPU float64 // CPU seconds available to the process
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	g := gcStats{alloc: ms.TotalAlloc, cycles: ms.NumGC}
	if samples[0].Value.Kind() == rtmetrics.KindFloat64 {
		g.gcCPU = samples[0].Value.Float64()
		g.totalCPU = samples[1].Value.Float64()
	}
	return g
}

func (g gcStats) sub(o gcStats) gcStats {
	return gcStats{alloc: g.alloc - o.alloc, cycles: g.cycles - o.cycles,
		gcCPU: g.gcCPU - o.gcCPU, totalCPU: g.totalCPU - o.totalCPU}
}

// serveLayer holds the job server's own figures.
type serveLayer struct {
	hitRatio     float64
	misses       uint64
	flightHits   uint64
	bytes        int64
	queueMax     int64
	busyMean     float64
	submit, poll []float64 // client-side ms per job
	artifact     []float64
	freshJob     []float64 // job_ms of each fresh job
	freshShare   float64   // share of the clients' job time on fresh jobs
}

// layerMetrics gathers what a trace run measured.
type layerMetrics struct {
	tr       *tracer
	counts   counters
	workers  int
	wall     time.Duration // traced window
	refWall  time.Duration // the same work untraced
	poolWall time.Duration // the campaign pools' wall time (0 = wall)
	outcomes []campaign.Outcome
	body     map[string]time.Duration // cell body time by cell name
	gc       gcStats                  // over the untraced window
	gcCells  int                      // cells in the untraced window
	probe    allocs
	serve    *serveLayer
}

func (l *layerMetrics) report() *metrics {
	ms := newMetrics()
	tr, c := l.tr, l.counts
	cellMS := tr.durMS("harness.cell")
	ticked := float64(c.cycles - c.skipped)
	retired := float64(c.retired)

	progMS, newMS, runsMS := tr.durMS("workload.programs"), tr.durMS("sim.new"), tr.durMS("sim.run")
	runMS := sum(runsMS)
	ms.set("workload.programs_ms", "ms", median(progMS), len(progMS))
	ms.set("sim.new_ms_p50", "ms", median(newMS), len(newMS))
	ms.set("sim.new_share", "ratio", ratio(sum(newMS), sum(cellMS)), len(cellMS))
	ms.set("sim.new_alloc_kb", "KiB", ratio(float64(l.probe.newB)/1024, float64(l.probe.cells)), l.probe.cells)
	ms.set("sim.run_ms_p50", "ms", median(runsMS), len(runsMS))
	ms.set("sim.kinstr_per_s", "kinstr/s", ratio(retired, runMS), c.cells)
	ms.set("sim.run_alloc_kb", "KiB", ratio(float64(l.probe.runB)/1024, float64(l.probe.cells)), l.probe.cells)
	ms.set("engine.skip_ratio", "ratio", ratio(float64(c.skipped), float64(c.cycles)), c.cells)
	ms.set("engine.ticked_kcycles", "count", ticked/1000, c.cells)
	ms.set("engine.ns_per_ticked_cycle", "ns", ratio(runMS*1e6, ticked), c.cells)
	ms.set("core.fetched_per_retired", "ratio", ratio(float64(c.fetched), retired), c.cells)
	ms.set("core.squashes_per_kinstr", "1/kinstr", ratio(float64(c.squashes)*1000, retired), c.cells)
	ms.set("core.validation_stall_share", "ratio", ratio(float64(c.valStall), float64(c.coreCycles)), c.cells)
	ms.set("memsys.events_per_kinstr", "1/kinstr", ratio(float64(c.events)*1000, retired), c.cells)
	ms.set("noc.packets_per_kinstr", "1/kinstr", ratio(float64(c.packets)*1000, retired), c.cells)
	ms.set("memsys.l1d_miss_ratio", "ratio", ratio(float64(c.l1dMiss), float64(c.l1dHit+c.l1dMiss)), c.cells)
	ms.set("memsys.llc_miss_ratio", "ratio", ratio(float64(c.llcMiss), float64(c.llcHit+c.llcMiss)), c.cells)
	ms.set("harness.cell_ms_p50", "ms", median(cellMS), len(cellMS))

	var overhead []float64
	for _, o := range l.outcomes {
		if b, ok := l.body[o.Name]; ok {
			overhead = append(overhead, float64(o.HostNS-b.Nanoseconds())/1e3)
		}
	}
	pool := l.poolWall
	if pool == 0 {
		pool = l.wall
	}
	idle := 0.0
	if pool > 0 && len(cellMS) > 0 {
		idle = 1 - sum(cellMS)/(float64(l.workers)*float64(pool.Nanoseconds())/1e6)
	}
	ms.set("campaign.idle_share", "ratio", idle, len(cellMS))
	ms.set("campaign.overhead_us_p50", "us", median(overhead), len(overhead))

	s := l.serve
	if s == nil {
		s = &serveLayer{}
	}
	ms.set("memo.hit_ratio", "ratio", s.hitRatio, 0)
	ms.set("memo.misses", "count", float64(s.misses), 0)
	ms.set("memo.flight_hits", "count", float64(s.flightHits), 0)
	ms.set("memo.bytes", "B", float64(s.bytes), 0)
	ms.set("serve.queue_depth_max", "count", float64(s.queueMax), 0)
	ms.set("serve.workers_busy_mean", "count", s.busyMean, 0)
	ms.set("serve.submit_ms_p50", "ms", median(s.submit), len(s.submit))
	ms.set("serve.poll_ms_p50", "ms", median(s.poll), len(s.poll))
	ms.set("serve.artifact_ms_p50", "ms", median(s.artifact), len(s.artifact))
	ms.set("serve.fresh_job_ms_p50", "ms", median(s.freshJob), len(s.freshJob))
	ms.set("serve.fresh_time_share", "ratio", s.freshShare, len(s.freshJob))

	ms.set("leakage.analyze_ms", "ms", tr.sumMS("leakage.analyze"), len(tr.durMS("leakage.analyze")))
	ms.set("leakage.report_ms", "ms", tr.sumMS("leakage.report"), len(tr.durMS("leakage.report")))
	ms.set("runner.encode_ms", "ms", tr.sumMS("runner.encode"), len(tr.durMS("runner.encode")))

	ms.set("go.alloc_mb_per_cell", "MiB", ratio(float64(l.gc.alloc)/(1<<20), float64(l.gcCells)), l.gcCells)
	ms.set("go.gc_cpu_share", "ratio", ratio(l.gc.gcCPU, l.gc.totalCPU), 0)
	ms.set("go.gc_cycles", "count", float64(l.gc.cycles), 0)
	ms.set("go.peak_rss_mb", "MB", peakRSSMB(), 0)
	ms.set("bench.trace_overhead", "ratio", ratio(l.wall.Seconds(), l.refWall.Seconds())-1, 0)
	return ms
}

// printShares writes each span name's self time and its share of all
// traced self time: where the host time of the traced work went.
func (l *layerMetrics) printShares(w io.Writer) {
	self := l.tr.selfMS()
	names := make([]string, 0, len(self))
	var total float64
	for n, ms := range self {
		names = append(names, n)
		total += ms
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "self time by span:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-20s %12.1f ms  %6.2f%%\n", n, self[n], 100*ratio(self[n], total))
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
