// Package artifact holds the pieces shared by every campaign artifact the
// repo emits (bench-JSON, leakage-report, conform-report): the uniform
// file-writing path that guarantees a CLI cannot exit zero after a silently
// truncated or unflushed artifact, and the degraded-cell block that resilient
// campaigns (internal/campaign) attach to an artifact instead of aborting
// when cells fail permanently.
//
// The package sits below both internal/runner and internal/campaign on
// purpose: runner's bench artifact and the leakage/conform reports embed
// DegradedCell without importing the campaign machinery, and campaign
// produces []DegradedCell without importing any artifact schema.
package artifact

import (
	"fmt"
	"io"
	"os"
)

// DegradedCell records one campaign cell that failed permanently — a
// deterministic simulator outcome, or a transient failure that exhausted its
// retry budget — in an artifact's degraded block. The campaign completes and
// the artifact is written; the CLI exits non-zero and prints these entries so
// a degraded sweep is loud, diagnosable, and individually re-runnable.
type DegradedCell struct {
	// Name is the cell's human label (e.g. "mcf/IS-Sp/TSO").
	Name string `json:"name"`
	// Key is the cell's content-hash identity in the campaign checkpoint.
	Key string `json:"key"`
	// Error is the terminal failure.
	Error string `json:"error"`
	// Class is the failure classification: "deterministic" (failed fast,
	// never retried) or "transient" (retries exhausted).
	Class string `json:"class"`
	// Attempts is how many times the cell ran before being written off.
	Attempts int `json:"attempts"`
	// Repro is a ready-to-run command that re-executes the failed cell.
	Repro string `json:"repro,omitempty"`
}

// Write creates path and streams the artifact through write, surfacing every
// failure — create, write, or close — as one wrapped error. It is the uniform
// artifact-write path for the campaign CLIs: any error must turn into a
// non-zero exit, so CI can never upload a silently truncated artifact.
func Write(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating artifact %s: %w", path, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing artifact %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing artifact %s: %w", path, err)
	}
	return nil
}
