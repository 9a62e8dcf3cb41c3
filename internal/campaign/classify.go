package campaign

// Failure classification: the retry policy's brain. Every cell failure is
// partitioned into exactly one class, and only ClassTransient is ever
// retried. The default for an unrecognized error is ClassDeterministic —
// the simulator is deterministic by construction, so an unknown failure is
// far more likely to reproduce identically than to vanish, and failing fast
// beats a retry storm that re-runs a guaranteed-to-fail cell N times.

import (
	"context"
	"errors"
	"fmt"
	"os/exec"

	"invisispec/internal/invariant"
	"invisispec/internal/sim"
)

// Class partitions cell failures by how the campaign reacts to them.
type Class int

const (
	// ClassNone: the cell succeeded.
	ClassNone Class = iota
	// ClassTransient is a host-side failure — subprocess crash, wall-clock
	// timeout, fault-seeded I/O — worth retrying under backoff: the
	// simulated outcome is unaffected by when or where the cell re-runs.
	ClassTransient
	// ClassDeterministic is a simulated outcome — budget exhaustion,
	// watchdog deadlock, invariant violation, divergence, panic inside the
	// deterministic simulator — that will reproduce identically on every
	// retry. The campaign fails the cell fast and records it as degraded.
	ClassDeterministic
	// ClassCancelled means the campaign itself was cancelled while the cell
	// ran (or before it started). Cancelled cells are neither retried nor
	// stored, so a resumed campaign re-runs them.
	ClassCancelled
)

// String returns the class name used in degraded blocks and wire results.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "ok"
	case ClassTransient:
		return "transient"
	case ClassDeterministic:
		return "deterministic"
	case ClassCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// parseClass is String's inverse for wire results; unknown strings
// read as deterministic (the conservative, never-retry interpretation).
func parseClass(s string) Class {
	switch s {
	case "ok":
		return ClassNone
	case "transient":
		return ClassTransient
	case "cancelled":
		return ClassCancelled
	}
	return ClassDeterministic
}

// ErrTransient marks host-side failures the retry policy may re-run. Cell
// implementations wrap it (fmt.Errorf("...: %w", campaign.ErrTransient))
// to flag their own transient conditions — fault-seeded I/O in tests, for
// example — and the isolation layer's crash errors unwrap to it.
var ErrTransient = errors.New("transient failure")

// classer lets error types carry their own class through wrapping; Classify
// checks it before the sentinel rules.
type classer interface{ campaignClass() Class }

// WorkerCrashError reports an isolated worker process that died without
// delivering a result — killed, OOMed, crashed, or emitting garbage. Always
// transient: the simulated work is deterministic, so a re-run in a fresh
// process is safe and likely to succeed.
type WorkerCrashError struct {
	Cell   string
	Err    error  // the exec-level failure, when any
	Stderr string // tail of the worker's stderr, for diagnosis
}

func (e *WorkerCrashError) Error() string {
	msg := fmt.Sprintf("isolated worker for %s crashed", e.Cell)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	if e.Stderr != "" {
		msg += "\nworker stderr:\n" + e.Stderr
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrTransient) true.
func (e *WorkerCrashError) Unwrap() error { return ErrTransient }

// RemoteError is a failure an isolated worker reported over the wire,
// classified by the worker (which held the typed error) since only its text
// survives process boundaries.
type RemoteError struct {
	Msg   string
	Class Class
}

func (e *RemoteError) Error() string        { return e.Msg }
func (e *RemoteError) campaignClass() Class { return e.Class }

// PanicError is a panic recovered inside an in-process cell run. The
// simulator is deterministic, so a panic reproduces on retry: deterministic.
type PanicError struct {
	Cell  string
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: panic: %v", e.Cell, e.Value)
}
func (e *PanicError) campaignClass() Class { return ClassDeterministic }

// Classify maps a cell failure to its retry class:
//
//	nil                                  -> ClassNone
//	carries its own class (RemoteError,
//	  PanicError)                        -> that class
//	context.Canceled                     -> ClassCancelled (campaign shutdown)
//	context.DeadlineExceeded             -> ClassTransient (wall-clock timeout)
//	ErrTransient (WorkerCrashError,
//	  fault-seeded I/O wrappers)         -> ClassTransient
//	*exec.ExitError                      -> ClassTransient (subprocess died)
//	sim.ErrCycleBudget                   -> ClassDeterministic
//	invariant.ErrDeadlock / ErrViolation -> ClassDeterministic
//	anything else                        -> ClassDeterministic (fail fast)
//
// The explicit deterministic rules are redundant with the default but are
// listed (and table-tested) so the taxonomy is visible in one place.
func Classify(err error) Class {
	if err == nil {
		return ClassNone
	}
	var c classer
	if errors.As(err, &c) {
		return c.campaignClass()
	}
	switch {
	case errors.Is(err, context.Canceled):
		return ClassCancelled
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTransient
	case errors.Is(err, ErrTransient):
		return ClassTransient
	}
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		return ClassTransient
	}
	if errors.Is(err, sim.ErrCycleBudget) ||
		errors.Is(err, invariant.ErrDeadlock) ||
		errors.Is(err, invariant.ErrViolation) {
		return ClassDeterministic
	}
	return ClassDeterministic
}
