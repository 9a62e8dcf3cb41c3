// Command conformfuzz runs the differential conformance fuzzing campaign:
// seeded random programs executed on the golden interpreter and on the
// simulator under every defense × consistency × kernel configuration, with
// final architectural state compared byte for byte. Diverging programs are
// optionally auto-shrunk to minimized reproducers.
//
// The campaign runs on the resilient execution layer (internal/campaign):
// -journal DIR checkpoints every finished program in a store directory,
// -resume skips programs a previous (possibly killed) run already finished
// and replays their results byte-identically, -retries re-runs transient
// failures, and -isolate shards programs into kill-on-hang child worker
// processes (the same binary re-exec'd in -cellworker mode).
//
// Imported traces join the gate too: -import DIR replays every *.trace
// admitted by the workload registry under the full configuration matrix
// and diffs the committed stream against the recording (-n 0 runs just
// that check, skipping the fuzz campaign). -emittrace DIR promotes each
// conforming generated program to a replayable trace in DIR, feeding the
// import corpus.
//
// Exit status: 0 when every program conforms, 1 when any program diverged,
// errored, or degraded, 2 on usage or I/O failure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"invisispec/internal/artifact"
	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/conform"
	"invisispec/internal/trace"
	"invisispec/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	// Imported workloads register before any program runs — in -cellworker
	// children too, via the inherited INVISISPEC_IMPORT environment.
	if err := workload.ImportFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "conformfuzz:", err)
		return 2
	}
	if code, served := campaign.WorkerMain(os.Args, func(ctx context.Context, name string, spec json.RawMessage) (any, error) {
		s, err := campaign.DecodeSpec[conform.ProgSpec](spec)
		if err != nil {
			return nil, err
		}
		return conform.RunProgSpec(ctx, s)
	}); served {
		return code
	}

	var (
		seed    = flag.Uint64("seed", 1, "campaign seed; program i uses Mix(seed, i)")
		n       = flag.Int("n", 200, "number of programs")
		only    = flag.Int("only", -1, "check a single program index (repro mode; -1 = all)")
		jobs    = flag.Int("jobs", 0, "worker count (0: GOMAXPROCS)")
		shrink  = flag.Bool("shrink", false, "minimize diverging programs and emit reproducers")
		evals   = flag.Int("shrink-evals", 2000, "oracle budget per shrink")
		jsonOut = flag.String("json", "", "write the full report artifact to this file")
		quiet   = flag.Bool("q", false, "suppress per-program progress")
		defsF   = flag.String("defenses", "", "comma-separated defense-scheme subset for the configuration matrix (default: all registered; see invisisim -listdefenses)")
		impDir  = flag.String("import", "", "replay-check every *.trace in this directory against the configuration matrix (combine with -n 0 to run only that check)")
		emitDir = flag.String("emittrace", "", "write each conforming generated program to this directory as a replayable .trace")
	)
	copts := campaign.AddFlags(flag.CommandLine)
	flag.Parse()
	if *n <= 0 && !(*n == 0 && *impDir != "") {
		fmt.Fprintln(os.Stderr, "conformfuzz: -n must be positive (-n 0 is allowed only with -import)")
		return 2
	}
	if *only >= *n {
		fmt.Fprintf(os.Stderr, "conformfuzz: -only %d out of range (n=%d)\n", *only, *n)
		return 2
	}
	defs, err := config.ParseDefenses(*defsF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "conformfuzz:", err)
		return 2
	}

	importBad := 0
	if *impDir != "" {
		names, err := workload.ImportDir(*impDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "conformfuzz:", err)
			return 2
		}
		cfgs := conform.ConfigsFor(defs)
		for _, wname := range names {
			w, err := workload.Lookup(wname)
			if err != nil {
				fmt.Fprintln(os.Stderr, "conformfuzz:", err)
				return 2
			}
			tw, ok := w.(*workload.TraceWorkload)
			if !ok {
				continue
			}
			divs := conform.CheckImportedTrace(tw.Trace(), cfgs)
			for _, d := range divs {
				fmt.Printf("imported %s: DIVERGES %s: %s\n", wname, d.Config, d.Reason)
			}
			if len(divs) > 0 {
				importBad++
			} else if !*quiet {
				fmt.Fprintf(os.Stderr, "imported %s: replays byte-identically across %d configs\n", wname, len(cfgs))
			}
		}
		fmt.Printf("conformfuzz: %d imported trace(s), %d diverging\n", len(names), importBad)
	}
	if *n == 0 {
		if importBad > 0 {
			return 1
		}
		return 0
	}

	camp, err := copts()
	if err != nil {
		fmt.Fprintln(os.Stderr, "conformfuzz:", err)
		return 2
	}
	opts := conform.Options{
		Seed:           *seed,
		N:              *n,
		Jobs:           *jobs,
		Shrink:         *shrink,
		MaxShrinkEvals: *evals,
		Campaign:       camp,
	}
	if *defsF != "" {
		opts.Defenses = defs
	}
	if *only >= 0 {
		opts.Indices = []int{*only}
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	rep, err := conform.Campaign(context.Background(), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "conformfuzz: %v\n", err)
		return 2
	}

	if *jsonOut != "" {
		if err := artifact.Write(*jsonOut, func(w io.Writer) error {
			return conform.WriteReportJSON(w, rep)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "conformfuzz: %v\n", err)
			return 2
		}
	}

	for _, r := range rep.Runs {
		if r.Error != "" {
			fmt.Printf("program %d (seed %#x): ERROR %s\n", r.Index, r.Seed, r.Error)
		}
		for _, d := range r.Divergences {
			fmt.Printf("program %d (seed %#x): DIVERGES %s: %s\n", r.Index, r.Seed, d.Config, d.Reason)
		}
		if r.MinimizedLen > 0 {
			fmt.Printf("program %d: minimized to %d instructions (%d oracle evals)\n",
				r.Index, r.MinimizedLen, r.ShrinkEvals)
			for _, l := range r.Minimized {
				fmt.Println("  " + l)
			}
			fmt.Println("--- reproducer (commit under internal/conform/corpus/) ---")
			fmt.Print(r.ReproGo)
			fmt.Println("--- end reproducer ---")
		}
	}
	if *emitDir != "" {
		if err := emitTraces(*emitDir, rep); err != nil {
			fmt.Fprintf(os.Stderr, "conformfuzz: %v\n", err)
			return 2
		}
	}

	degraded := campaign.PrintDegraded(os.Stderr, "conformfuzz", rep.Degraded)
	fmt.Printf("conformfuzz: %d programs × %d configs, %d diverging, %d errors (seed %d)\n",
		rep.Programs, len(rep.Configs), rep.Diverging, rep.Errors, rep.Seed)
	if rep.Diverging > 0 || rep.Errors > 0 || degraded || importBad > 0 {
		return 1
	}
	return 0
}

// emitTraces promotes every conforming campaign program to a replayable
// .trace in dir, named exactly as the campaign named it (conform-INDEX-SEED),
// so a later -import run's divergence reports point back at the same
// program identity.
func emitTraces(dir string, rep *conform.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	emitted := 0
	for _, r := range rep.Runs {
		if r.Error != "" || len(r.Divergences) > 0 {
			continue
		}
		p := conform.Generate(r.Seed)
		p.Name = fmt.Sprintf("conform-%d-%x", r.Index, r.Seed)
		t, err := conform.EmitTrace(p)
		if err != nil {
			return err
		}
		if err := trace.WriteFile(filepath.Join(dir, p.Name+".trace"), t); err != nil {
			return err
		}
		emitted++
	}
	fmt.Printf("conformfuzz: %d conforming trace(s) written to %s\n", emitted, dir)
	return nil
}
