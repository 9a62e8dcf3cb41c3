package campaign

// Shared CLI surface: every campaign CLI (benchtable, leakscan, conformfuzz)
// exposes the same resilience flags and the same -cellworker re-exec entry
// point, so the checkpoint/retry/isolation semantics are uniform across
// artifacts.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"invisispec/internal/artifact"
	"invisispec/internal/memo"
)

// AddFlags registers the uniform resilience flags on fs and returns a
// builder that assembles the Options they selected after fs.Parse. With
// -journal DIR the builder opens the checkpoint store there; without
// -resume it first clears the store's own files, so the run starts empty.
// Each call of the builder opens (and, without -resume, clears) the store
// afresh. The store holds no open files, so it needs no Close: every entry
// is durable once written.
func AddFlags(fs *flag.FlagSet) func() (Options, error) {
	var (
		journal = fs.String("journal", "", "checkpoint store directory: every finished cell is written there (\"\" = no checkpointing)")
		resume  = fs.Bool("resume", false, "keep -journal's cells and replay them byte-identically instead of clearing the store first")
		retries = fs.Int("retries", 2, "re-runs per cell after a transient failure (deterministic failures never retry)")
		isolate = fs.Bool("isolate", false, "run each cell attempt in a kill-on-hang child worker process")
		seed    = fs.Int64("retry-seed", 0, "seed for the deterministic retry-backoff jitter")
	)
	return func() (Options, error) {
		o := Options{Retries: *retries, Seed: *seed}
		if *isolate {
			o.Isolate = &IsolateOptions{}
		}
		if *journal == "" {
			return o, nil
		}
		store, err := memo.Open(*journal, memo.Options{})
		if err != nil {
			return o, err
		}
		if !*resume {
			if err := store.Clear(); err != nil {
				return o, err
			}
		}
		o.Store = store
		return o, nil
	}
}

// WorkerMain intercepts the -cellworker re-exec mode: when argv requests it,
// one wire-encoded cell is served on stdin/stdout via handler and WorkerMain
// returns (exit code, true); otherwise it returns (0, false) and the CLI
// proceeds normally. Call before flag.Parse — the worker mode takes no other
// arguments.
func WorkerMain(argv []string, handler func(ctx context.Context, name string, spec json.RawMessage) (any, error)) (int, bool) {
	if len(argv) < 2 || argv[1] != "-cellworker" {
		return 0, false
	}
	if err := ServeWorker(os.Stdin, os.Stdout, handler); err != nil {
		fmt.Fprintf(os.Stderr, "cellworker: %v\n", err)
		return 2, true
	}
	return 0, true
}

// DecodeSpec unmarshals a wire spec into the CLI's concrete spec type with a
// uniform error message.
func DecodeSpec[T any](spec json.RawMessage) (T, error) {
	var s T
	if err := json.Unmarshal(spec, &s); err != nil {
		return s, fmt.Errorf("campaign: decoding worker spec: %w", err)
	}
	return s, nil
}

// PrintDegraded renders an artifact's degraded block the way every campaign
// CLI reports it: one line per permanently failed cell plus its ready-to-run
// repro command. It returns true when anything was printed, which the CLIs
// turn into a non-zero exit.
func PrintDegraded(w io.Writer, prog string, cells []artifact.DegradedCell) bool {
	for _, d := range cells {
		fmt.Fprintf(w, "%s: DEGRADED %s (%s after %d attempts): %s\n", prog, d.Name, d.Class, d.Attempts, d.Error)
		if d.Repro != "" {
			fmt.Fprintf(w, "%s:   repro: %s\n", prog, d.Repro)
		}
	}
	return len(cells) > 0
}
