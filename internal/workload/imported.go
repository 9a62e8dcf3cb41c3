package workload

// Imported workloads: replayable v2 traces loaded from disk and
// registered as first-class entries, so an externally recorded program
// participates in bench sweeps, leakage scans, conformance fuzzing, and
// simserver jobs identically to a built-in kernel. Admission is gated by
// spec-derived invariants — instruction conservation against the golden
// interpreter, clock monotonicity, byte-identical replay-of-replay —
// never by golden values, so an imported trace can exercise behaviour the
// built-in kernels do not without a baseline to compare against.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"invisispec/internal/isa"
	"invisispec/internal/trace"
)

// TraceWorkload replays a recorded trace: the decoded programs drive the
// OoO core exactly as the original programs did (the event stream rides
// along as the conformance oracle, see conform.CheckImportedTrace).
type TraceWorkload struct {
	t *trace.Trace
}

// Name is the trace header's name — the registry key and the checkpoint
// identity, independent of the file path the trace was loaded from.
func (w *TraceWorkload) Name() string { return w.t.Name }

// Class marks the workload as a runtime import.
func (w *TraceWorkload) Class() Class { return ClassImported }

// DefaultCores is the recorded machine width.
func (w *TraceWorkload) DefaultCores() int { return len(w.t.Programs) }

// Programs returns the decoded per-core programs. A trace replays only at
// its recorded width: the programs were generated for specific core
// indices (private regions, pipeline stages), so any other width would be
// a different workload.
func (w *TraceWorkload) Programs(cores int) ([]*isa.Program, error) {
	if cores != len(w.t.Programs) {
		return nil, fmt.Errorf("workload: imported trace %q records %d core(s), not %d",
			w.t.Name, len(w.t.Programs), cores)
	}
	return append([]*isa.Program(nil), w.t.Programs...), nil
}

// Trace exposes the decoded trace (the recorded commit streams are the
// conformance oracle for the replay).
func (w *TraceWorkload) Trace() *trace.Trace { return w.t }

// LoadTraceFile decodes and admission-checks one trace file without
// registering it (traceconv -verify uses this directly). The gates, in
// order:
//
//  1. Structural: v2 format, CRC-verified, per-core clock monotonicity
//     (trace.DecodeBytes / Validate).
//  2. Replay-of-replay: re-encoding the decoded trace must reproduce the
//     file's bytes exactly — the canonical-encoding property that makes
//     "replay the replay" a fixed point instead of a drift vector.
//  3. Instruction conservation (single-core traces): the golden
//     interpreter, run for exactly the recorded event count, must commit
//     an architecturally identical stream (trace.Diff semantics: cycles
//     and OpCycle values are timing, everything else must match).
//     Multi-core recordings depend on an interleaving the single-threaded
//     interpreter cannot reproduce, so they pass on gates 1–2 only.
func LoadTraceFile(path string) (*trace.Trace, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := trace.DecodeBytes(raw)
	if err != nil {
		return nil, fmt.Errorf("workload: import %s: %w", path, err)
	}
	reenc, err := trace.EncodeBytes(t)
	if err != nil {
		return nil, fmt.Errorf("workload: import %s: %w", path, err)
	}
	if !bytes.Equal(raw, reenc) {
		return nil, fmt.Errorf("workload: import %s: re-encoding differs from file (non-canonical bytes)", path)
	}
	if len(t.Programs) == 1 {
		n := uint64(len(t.Events[0]))
		ref, _ := trace.RecordInterp(t.Name, t.Programs[0], n)
		if uint64(len(ref.Events[0])) != n {
			return nil, fmt.Errorf("workload: import %s: interpreter halts after %d of %d recorded instructions",
				path, len(ref.Events[0]), n)
		}
		if i, why := trace.Diff(t.Events[0], ref.Events[0]); i != -1 {
			return nil, fmt.Errorf("workload: import %s: recorded stream diverges from golden interpreter at commit %d: %s",
				path, i, why)
		}
	}
	return t, nil
}

// ImportFile loads one trace file as a workload (without registering it).
func ImportFile(path string) (*TraceWorkload, error) {
	t, err := LoadTraceFile(path)
	if err != nil {
		return nil, err
	}
	return &TraceWorkload{t: t}, nil
}

// ImportDir loads every *.trace file in dir (non-recursive, sorted by
// file name for deterministic registration order) and registers each as a
// workload. It returns the registered names. A name collision — two trace
// headers with the same name, or a trace named after a built-in kernel —
// fails the import; record with a distinct name instead.
func ImportDir(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var names []string
	for _, path := range paths {
		w, err := ImportFile(path)
		if err != nil {
			return nil, err
		}
		if err := Register(w); err != nil {
			return nil, fmt.Errorf("workload: import %s: %w", path, err)
		}
		names = append(names, w.Name())
	}
	return names, nil
}

// EnvImportDirs is the environment variable through which import
// directories propagate to re-executed campaign cell workers: the parent
// process sets it (SetImportDirs) before spawning, the worker inherits
// the environment and calls ImportFromEnv before serving cells, and both
// sides end up with the identical registry the checkpoint keys assume.
const EnvImportDirs = "INVISISPEC_IMPORT"

var importEnvOnce sync.Once

// SetImportDirs records dir in the process environment (appending to any
// existing list) so isolation-spawned workers import the same corpus.
func SetImportDirs(dir string) error {
	val := dir
	if prev := os.Getenv(EnvImportDirs); prev != "" {
		val = prev + string(os.PathListSeparator) + dir
	}
	return os.Setenv(EnvImportDirs, val)
}

// ImportFromEnv imports every directory listed in EnvImportDirs, once per
// process (idempotent across the campaign worker's cell loop). CLIs call
// it at startup, before flag handling: in the parent the variable is
// normally unset and this is a no-op; in a re-executed -cellworker child
// it reconstructs the parent's imported registry.
func ImportFromEnv() error {
	val := os.Getenv(EnvImportDirs)
	if val == "" {
		return nil
	}
	var err error
	importEnvOnce.Do(func() {
		for _, dir := range strings.Split(val, string(os.PathListSeparator)) {
			if dir == "" {
				continue
			}
			if _, e := ImportDir(dir); e != nil {
				err = e
				return
			}
		}
	})
	return err
}
