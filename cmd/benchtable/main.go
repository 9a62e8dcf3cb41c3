// Command benchtable regenerates every figure and table of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index):
//
//	benchtable -fig 4      SPEC normalized execution time (5 configs, TSO + RC average)
//	benchtable -fig 5      Spectre PoC latencies (delegates to the attack)
//	benchtable -fig 6      SPEC normalized network traffic with SpecLoad/Expose-Validate split
//	benchtable -fig 7      PARSEC normalized execution time
//	benchtable -fig 8      PARSEC normalized network traffic
//	benchtable -table 6    InvisiSpec operation characterization
//	benchtable -table 7    L1-SB / LLC-SB hardware overhead
//
// -measure scales the per-run instruction budget. The experiment matrix is
// sharded across -jobs workers (default: all host CPUs) by internal/campaign;
// each run is an isolated single-goroutine machine, and the aggregated
// output is byte-identical to a -jobs 1 run. -benchjson additionally writes
// the schema-versioned BENCH artifact that cmd/benchdiff gates CI with.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"invisispec/internal/artifact"
	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/hwcost"
	"invisispec/internal/runner"
	"invisispec/internal/stats"
	"invisispec/internal/workload"
)

var (
	figure  = flag.Int("fig", 0, "figure to regenerate (4, 6, 7 or 8); 5 is cmd/spectre-poc")
	table   = flag.Int("table", 0, "table to regenerate (6 or 7)")
	warmup  = flag.Uint64("warmup", 20000, "warmup instructions per run")
	measure = flag.Uint64("measure", 100000, "measured instructions per run")
	names   = flag.String("names", "", "comma-separated workload subset (default: all)")
	defsF   = flag.String("defenses", "", "comma-separated defense-scheme subset (default: all registered; see invisisim -listdefenses); figures need Base in the subset for normalization")
	csvPath = flag.String("csv", "", "also write every raw measurement to this CSV file")
	jobsN   = flag.Int("jobs", runtime.NumCPU(), "parallel simulation jobs (worker pool size)")
	seedsF  = flag.String("faultseeds", "", "comma-separated fault-injection seeds: adds a seed axis to the matrix (0 or empty = fault-free)")
	bjPath  = flag.String("benchjson", "", "also write the aggregated measurements as a bench-JSON artifact to this file")
	bjName  = flag.String("benchname", "", "artifact name inside -benchjson (default: fig<N>/table<N>)")
	bjHost  = flag.Bool("benchhost", true, "include the host wall-time block in -benchjson output (disable for committed baselines)")
	cmpK    = flag.Bool("comparekernels", false, "re-run the matrix under the cycle-by-cycle stepped kernel, fail unless its results are byte-identical to the fast kernel's, and record both wall times in the -benchjson host block")
	impDir  = flag.String("import", "", "import *.trace files from this directory as workloads (selectable via -names)")
	quiet   = flag.Bool("quiet", false, "suppress per-job progress lines on stderr")

	// campaignFlags registers the uniform -journal/-resume/-retries/-isolate
	// resilience flags (internal/campaign).
	campaignFlags = campaign.AddFlags(flag.CommandLine)

	csvW *csv.Writer
)

// fail prints the error and exits non-zero.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchtable:", err)
	os.Exit(1)
}

// csvOpen starts the raw-measurement CSV if requested. The returned closer
// flushes and surfaces any buffered write error: CI must not be able to
// upload a silently truncated CSV.
func csvOpen() func() {
	if *csvPath == "" {
		return func() {}
	}
	f, err := os.Create(*csvPath)
	if err != nil {
		fail(err)
	}
	csvW = csv.NewWriter(f)
	csvW.Write([]string{
		"workload", "defense", "consistency", "fault_seed", "instructions",
		"cycles", "cpi",
		"traffic_total", "traffic_normal", "traffic_specload", "traffic_valexp",
		"traffic_writeback", "traffic_fetch", "exposures", "validations_l1hit",
		"validations_l1miss", "validation_failures", "squashes_per_minst",
		"llcsb_hit_rate", "dram_reads",
	})
	return func() {
		csvW.Flush()
		if err := csvW.Error(); err != nil {
			f.Close()
			fail(fmt.Errorf("writing %s: %w", *csvPath, err))
		}
		if err := f.Close(); err != nil {
			fail(fmt.Errorf("closing %s: %w", *csvPath, err))
		}
	}
}

func csvRow(jr runner.JobResult) {
	if csvW == nil {
		return
	}
	r := jr.Result
	c := r.Core
	csvW.Write([]string{
		r.Workload, r.Run.Defense.String(), r.Run.Consistency.String(),
		fmt.Sprint(jr.Job.FaultSeed),
		fmt.Sprint(r.Instructions), fmt.Sprint(r.Cycles),
		fmt.Sprintf("%.4f", r.CPI()),
		fmt.Sprint(r.TotalTraffic()),
		fmt.Sprint(r.Traffic[stats.TrafficNormal]),
		fmt.Sprint(r.Traffic[stats.TrafficSpecLoad]),
		fmt.Sprint(r.Traffic[stats.TrafficValExp]),
		fmt.Sprint(r.Traffic[stats.TrafficWriteback]),
		fmt.Sprint(r.Traffic[stats.TrafficFetch]),
		fmt.Sprint(c.Exposures), fmt.Sprint(c.ValidationsL1Hit),
		fmt.Sprint(c.ValidationsL1Miss), fmt.Sprint(c.ValidationFailures),
		fmt.Sprintf("%.1f", c.SquashesPerMInst()),
		fmt.Sprintf("%.4f", r.LLCSBRate),
		fmt.Sprint(r.DRAMReads),
	})
}

func main() {
	// Imported workloads must exist before any cell runs — including in
	// re-executed -cellworker children, which inherit the parent's
	// INVISISPEC_IMPORT environment (set below when -import is given).
	if err := workload.ImportFromEnv(); err != nil {
		fail(err)
	}
	if code, served := campaign.WorkerMain(os.Args, func(ctx context.Context, name string, spec json.RawMessage) (any, error) {
		s, err := campaign.DecodeSpec[campaign.JobSpec](spec)
		if err != nil {
			return nil, err
		}
		return campaign.RunJobSpec(ctx, s)
	}); served {
		os.Exit(code)
	}
	flag.Parse()
	if *impDir != "" {
		if _, err := workload.ImportDir(*impDir); err != nil {
			fail(err)
		}
		if err := workload.SetImportDirs(*impDir); err != nil {
			fail(err)
		}
	}
	csvClose = csvOpen()
	switch {
	case *figure == 4:
		execTimeFigure(false)
	case *figure == 6:
		trafficFigure(false)
	case *figure == 7:
		execTimeFigure(true)
	case *figure == 8:
		trafficFigure(true)
	case *table == 6:
		table6()
	case *table == 7:
		table7()
	default:
		fmt.Fprintln(os.Stderr, "benchtable: pick one of -fig 4|6|7|8 or -table 6|7")
		os.Exit(2)
	}
	csvClose()
}

// csvClose flushes the CSV sink; set by main, also invoked by the degraded
// exit path so a sweep that completes with failed cells still lands its CSV.
var csvClose = func() {}

// reproFor builds the ready-to-run command reproducing one degraded cell.
func reproFor(name string, j runner.Job) string {
	var sel string
	switch {
	case strings.HasPrefix(name, "fig"):
		sel = "-fig " + strings.TrimPrefix(name, "fig")
	case strings.HasPrefix(name, "table"):
		sel = "-table " + strings.TrimPrefix(name, "table")
	default:
		sel = "-fig 4"
	}
	cmd := fmt.Sprintf("go run ./cmd/benchtable %s -names %s -warmup %d -measure %d -jobs 1",
		sel, j.Workload, j.Warmup, j.Measure)
	if j.FaultSeed != 0 {
		cmd += fmt.Sprintf(" -faultseeds %d", j.FaultSeed)
	}
	return cmd
}

// runMatrix shards the jobs across the campaign layer (checkpoint journal,
// typed retries, optional isolation — see the -journal/-resume/-retries/
// -isolate flags), records every measurement in the CSV and bench-JSON
// sinks, and degrades gracefully: cells that fail permanently land in the
// artifact's degraded block with a repro command and the sweep exits
// non-zero after writing everything, instead of aborting on first error.
func runMatrix(jobs []runner.Job, name string) []runner.JobResult {
	copts := campaignFlags()
	copts.Workers = *jobsN
	if !*quiet {
		copts.Progress = os.Stderr
	}
	sweep := campaign.BenchSweep{
		Campaign: "benchtable-" + name,
		Name:     name, Warmup: *warmup, Measure: *measure,
		Jobs: jobs, Kernel: engine.KernelFast,
		Repro: func(j runner.Job) string { return reproFor(name, j) },
	}
	if *bjName != "" {
		sweep.Name = *bjName
	}
	start := time.Now()
	b, results, _, err := campaign.RunBench(context.Background(), sweep, copts)
	if err != nil {
		fail(err)
	}
	wall := time.Since(start)
	for _, r := range results {
		if r.Err == nil {
			csvRow(r)
		}
	}
	var kernelWall map[string]time.Duration
	if *cmpK {
		if len(b.Degraded) > 0 {
			fail(fmt.Errorf("-comparekernels: %d cell(s) degraded, cannot certify kernel equivalence", len(b.Degraded)))
		}
		kernelWall = compareKernels(sweep, b, wall, copts)
	}
	writeBenchJSON(b, results, wall, kernelWall)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "runner: %d jobs in %s at -jobs %d\n",
			len(jobs), wall.Round(time.Millisecond), *jobsN)
	}
	if campaign.PrintDegraded(os.Stderr, "benchtable", b.Degraded) {
		// The artifact and CSV are complete (minus the degraded cells);
		// the human-readable tables would just divide by missing baselines.
		csvClose()
		os.Exit(1)
	}
	return results
}

// compareKernels is the CI-level half of the kernel-equivalence oracle (the
// unit-level half is internal/sim's TestKernelEquivalence): it re-runs the
// exact job matrix under the cycle-by-cycle reference stepper and fails the
// sweep unless the deterministic bench payload — every counter of every run —
// is byte-identical to the fast kernel's. The stepped pass uses the fast
// pass's campaign options minus the journal, so it never truncates or
// re-heads the fast pass's -journal file. On success it returns both
// sweeps' wall times for the artifact's quarantined host block, so
// benchdiff trajectories record the fast-forward speedup without gating on
// it.
func compareKernels(fast campaign.BenchSweep, fastBench *runner.Bench, fastWall time.Duration, opts campaign.Options) map[string]time.Duration {
	stepped := fast
	stepped.Campaign += "-stepped"
	stepped.Kernel = engine.KernelStepped
	opts.Journal, opts.Resume = "", false
	start := time.Now()
	steppedBench, results, _, err := campaign.RunBench(context.Background(), stepped, opts)
	steppedWall := time.Since(start)
	if err != nil {
		fail(fmt.Errorf("stepped-kernel rerun: %w", err))
	}
	if err := runner.FirstError(results); err != nil {
		fail(fmt.Errorf("stepped-kernel rerun: %w", err))
	}
	fastPayload, err := fastBench.DeterministicPayload()
	if err != nil {
		fail(err)
	}
	steppedPayload, err := steppedBench.DeterministicPayload()
	if err != nil {
		fail(err)
	}
	if !bytes.Equal(fastPayload, steppedPayload) {
		fail(fmt.Errorf("kernel equivalence violated: stepped and fast payloads differ over %d jobs\n--- fast ---\n%s\n--- stepped ---\n%s",
			len(fast.Jobs), fastPayload, steppedPayload))
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "kernels: %d jobs byte-identical; fast %s vs stepped %s (%.2fx)\n",
			len(fast.Jobs), fastWall.Round(time.Millisecond), steppedWall.Round(time.Millisecond),
			float64(steppedWall)/float64(fastWall))
	}
	return map[string]time.Duration{
		engine.KernelFast.String():    fastWall,
		engine.KernelStepped.String(): steppedWall,
	}
}

// writeBenchJSON emits the -benchjson artifact, if requested.
func writeBenchJSON(b *runner.Bench, results []runner.JobResult, wall time.Duration, kernelWall map[string]time.Duration) {
	if *bjPath == "" {
		return
	}
	if *bjHost {
		b.WithHost(wall, *jobsN, results)
		for k, w := range kernelWall {
			b.WithKernelWall(k, w)
		}
	}
	if err := artifact.Write(*bjPath, func(w io.Writer) error {
		return runner.WriteBenchJSON(w, b)
	}); err != nil {
		fail(err)
	}
}

// seedAxis parses -faultseeds. Empty means the fault-free single-seed
// matrix (seed 0). With several seeds, every run repeats once per seed:
// the printed tables show the first seed's rows, while the CSV and
// bench-JSON artifacts carry the full seed axis (benchdiff groups by seed).
func seedAxis() []int64 {
	if *seedsF == "" {
		return nil
	}
	var out []int64
	for _, s := range strings.Split(*seedsF, ",") {
		var v int64
		if _, err := fmt.Sscan(strings.TrimSpace(s), &v); err != nil {
			fail(fmt.Errorf("bad -faultseeds entry %q: %w", s, err))
		}
		out = append(out, v)
	}
	return out
}

// firstSeed is the seed whose rows the human-readable tables print.
func firstSeed() int64 {
	if s := seedAxis(); len(s) > 0 {
		return s[0]
	}
	return 0
}

// selectDefenses resolves -defenses through the registry. The figures
// normalize against Base, so the subset must include it there.
func selectDefenses(needBase bool) []config.Defense {
	defs, err := config.ParseDefenses(*defsF)
	if err != nil {
		fail(err)
	}
	if needBase {
		hasBase := false
		for _, d := range defs {
			hasBase = hasBase || d == config.Base
		}
		if !hasBase {
			fail(fmt.Errorf("-defenses %q: figures normalize against Base; include it in the subset", *defsF))
		}
	}
	return defs
}

// selectNames resolves -names through the workload registry: the default
// is the figure's bench suite, and an explicit subset is validated up
// front so an unknown name fails with the sorted-suggestion error before
// any simulation runs, instead of mid-sweep.
func selectNames(parsec bool) []string {
	if *names == "" {
		return workload.SuiteNames(parsec)
	}
	var out []string
	for _, n := range strings.Split(*names, ",") {
		n = strings.TrimSpace(n)
		if _, err := workload.Lookup(n); err != nil {
			fail(err)
		}
		out = append(out, n)
	}
	return out
}

// colWidth sizes a column for its heading: the classic 8-character figure
// column unless the defense name (e.g. BasicBlocker) needs more.
func colWidth(c string) int {
	if len(c)+1 > 8 {
		return len(c) + 1
	}
	return 8
}

func header(cols []string) {
	fmt.Printf("%-12s", "workload")
	for _, c := range cols {
		fmt.Printf("%*s", colWidth(c), c)
	}
	fmt.Println()
}

// groupKey buckets aggregated results the way the figures read them.
type groupKey struct {
	name string
	cm   config.Consistency
	seed int64
}

// group indexes results by (workload, consistency, seed) and defense.
func group(results []runner.JobResult) map[groupKey]map[config.Defense]harness.Result {
	out := make(map[groupKey]map[config.Defense]harness.Result)
	for _, r := range results {
		k := groupKey{r.Job.Workload, r.Job.Consistency, r.Job.FaultSeed}
		if out[k] == nil {
			out[k] = make(map[config.Defense]harness.Result, len(config.AllDefenses()))
		}
		out[k][r.Job.Defense] = r.Result
	}
	return out
}

var bothModels = []config.Consistency{config.TSO, config.RC}

// execTimeFigure prints Figure 4 (SPEC) or Figure 7 (PARSEC): per-workload
// execution time under each defense normalized to Base, under TSO, plus
// the RC-average row. The whole name x model x defense matrix runs through
// the worker pool before anything prints.
func execTimeFigure(parsec bool) {
	which := 4
	suite := "SPEC"
	if parsec {
		which = 7
		suite = "PARSEC"
	}
	defs := selectDefenses(true)
	ns := selectNames(parsec)
	res := group(runMatrix(
		runner.Matrix(ns, parsec, bothModels, defs, seedAxis(), *warmup, *measure),
		fmt.Sprintf("fig%d", which)))

	fmt.Printf("Figure %d: normalized execution time, %s (higher is slower)\n\n", which, suite)
	cols := make([]string, len(defs))
	for i, d := range defs {
		cols[i] = d.String()
	}
	header(cols)

	sums := map[config.Consistency]map[config.Defense]float64{
		config.TSO: {}, config.RC: {},
	}
	for _, name := range ns {
		for _, cm := range bothModels {
			norm := harness.NormalizedTime(res[groupKey{name, cm, firstSeed()}])
			for _, d := range defs {
				sums[cm][d] += norm[d]
			}
			if cm == config.TSO {
				fmt.Printf("%-12s", name)
				for _, d := range defs {
					fmt.Printf("%*.2f", colWidth(d.String()), norm[d])
				}
				fmt.Println()
			}
		}
	}
	printAverages(defs, sums, float64(len(ns)))
}

// trafficFigure prints Figure 6 (SPEC) or Figure 8 (PARSEC): per-workload
// network traffic normalized to Base, with the InvisiSpec columns split
// into Spec-GetS and expose/validate shares.
func trafficFigure(parsec bool) {
	which := 6
	suite := "SPEC"
	if parsec {
		which = 8
		suite = "PARSEC"
	}
	defs := selectDefenses(true)
	ns := selectNames(parsec)
	res := group(runMatrix(
		runner.Matrix(ns, parsec, bothModels, defs, seedAxis(), *warmup, *measure),
		fmt.Sprintf("fig%d", which)))

	fmt.Printf("Figure %d: normalized network traffic, %s\n", which, suite)
	fmt.Printf("(spec%%/ve%% = share of the invisible-load config's bytes from Spec-GetS / expose+validate;\n")
	fmt.Printf(" rows where the baseline moves almost no bytes — fully cache-resident kernels —\n")
	fmt.Printf(" normalize against a floor of 1/16 B/instr and read as ~0)\n\n")
	// Column layout follows the defense axis: every invisible-load scheme
	// gets its Spec-GetS and expose/validate share columns right after its
	// normalized-traffic column, so a newly registered scheme lands in the
	// figure without a layout edit.
	var cols []string
	for _, d := range defs {
		cols = append(cols, d.String())
		if d.UsesInvisiSpec() {
			cols = append(cols, "spec%", "ve%")
		}
	}
	header(cols)

	sums := map[config.Consistency]map[config.Defense]float64{
		config.TSO: {}, config.RC: {},
	}
	for _, name := range ns {
		for _, cm := range bothModels {
			byDef := res[groupKey{name, cm, firstSeed()}]
			norm := harness.NormalizedTraffic(byDef)
			for _, d := range defs {
				sums[cm][d] += norm[d]
			}
			if cm == config.TSO {
				share := func(d config.Defense, tc stats.TrafficClass) float64 {
					r := byDef[d]
					if r.TotalTraffic() == 0 {
						return 0
					}
					return 100 * float64(r.Traffic[tc]) / float64(r.TotalTraffic())
				}
				fmt.Printf("%-12s", name)
				for _, d := range defs {
					fmt.Printf("%*.2f", colWidth(d.String()), norm[d])
					if d.UsesInvisiSpec() {
						fmt.Printf("%8.1f%8.1f",
							share(d, stats.TrafficSpecLoad),
							share(d, stats.TrafficValExp))
					}
				}
				fmt.Println()
			}
		}
	}
	printAverages(defs, sums, float64(len(ns)))
}

func printAverages(defs []config.Defense, sums map[config.Consistency]map[config.Defense]float64, n float64) {
	fmt.Printf("%-12s", "average")
	for _, d := range defs {
		fmt.Printf("%*.2f", colWidth(d.String()), sums[config.TSO][d]/n)
	}
	fmt.Println()
	fmt.Printf("%-12s", "RC-average")
	for _, d := range defs {
		fmt.Printf("%*.2f", colWidth(d.String()), sums[config.RC][d]/n)
	}
	fmt.Println()
}

// table6 prints the InvisiSpec operation characterization (paper Table VI)
// for IS-Sp and IS-Fu under TSO, both suites through one pool run.
func table6() {
	isDefs := []config.Defense{config.ISSpectre, config.ISFuture}
	tso := []config.Consistency{config.TSO}
	jobs := runner.Matrix(selectNames(false), false, tso, isDefs, seedAxis(), *warmup, *measure)
	jobs = append(jobs, runner.Matrix(selectNames(true), true, tso, isDefs, seedAxis(), *warmup, *measure)...)
	results := runMatrix(jobs, "table6")

	fmt.Println("Table VI: characterization of InvisiSpec's operation under TSO")
	fmt.Println("(Sp = IS-Spectre, Fu = IS-Future)")
	fmt.Println()
	fmt.Printf("%-14s %-6s %7s %7s %7s %9s %7s %7s %7s %7s %7s\n",
		"workload", "cfg", "expo%", "valL1h%", "valL1m%", "sq/Minst",
		"br%", "cons%", "vfail%", "SBhit%", "LLCSB%")
	for _, r := range results {
		printTable6Row(r.Job.Workload, r.Job.Defense, r.Result)
	}
}

func printTable6Row(name string, d config.Defense, r harness.Result) {
	c := r.Core
	cfg := "Sp"
	if d == config.ISFuture {
		cfg = "Fu"
	}
	ve := float64(c.Exposures + c.Validations())
	if ve == 0 {
		ve = 1
	}
	squashes := float64(c.TotalSquashes())
	if squashes == 0 {
		squashes = 1
	}
	sbTotal := float64(c.SBReuseHits + c.SBReuseMisses)
	if sbTotal == 0 {
		sbTotal = 1
	}
	fmt.Printf("%-14s %-6s %7.1f %7.1f %7.1f %9.0f %7.1f %7.1f %7.1f %7.1f %7.1f\n",
		name, cfg,
		100*float64(c.Exposures)/ve,
		100*float64(c.ValidationsL1Hit)/ve,
		100*float64(c.ValidationsL1Miss)/ve,
		c.SquashesPerMInst(),
		100*float64(c.Squashes[stats.SquashBranch])/squashes,
		100*float64(c.Squashes[stats.SquashConsistency]+c.Squashes[stats.SquashEarly])/squashes,
		100*float64(c.Squashes[stats.SquashValidation])/squashes,
		100*float64(c.SBReuseHits)/sbTotal,
		100*r.LLCSBRate)
}

// table7 prints the hardware-overhead estimates (paper Table VII).
func table7() {
	m := config.Default(1)
	fmt.Println("Table VII: per-core hardware overhead of InvisiSpec (16 nm)")
	fmt.Println()
	fmt.Printf("%-28s %10s %10s\n", "Metric", "L1-SB", "LLC-SB")
	l1 := hwcost.L1SB(m).Estimate()
	llc := hwcost.LLCSB(m).Estimate()
	fmt.Printf("%-28s %10.4f %10.4f\n", "Area (mm^2)", l1.AreaMM2, llc.AreaMM2)
	fmt.Printf("%-28s %10.1f %10.1f\n", "Access time (ps)", l1.AccessPS, llc.AccessPS)
	fmt.Printf("%-28s %10.1f %10.1f\n", "Dynamic read energy (pJ)", l1.ReadPJ, llc.ReadPJ)
	fmt.Printf("%-28s %10.1f %10.1f\n", "Dynamic write energy (pJ)", l1.WritePJ, llc.WritePJ)
	fmt.Printf("%-28s %10.2f %10.2f\n", "Leakage power (mW)", l1.LeakMW, llc.LeakMW)
}
