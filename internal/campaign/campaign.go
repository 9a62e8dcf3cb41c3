// Package campaign is the resilient execution layer over the internal/runner
// task pool: it runs a matrix of deterministic cells with (1) a checkpoint
// in the content-addressed internal/memo store, keyed by a content hash of
// each cell's identity, so a killed campaign resumes by looking up its
// finished cells and produces a final artifact byte-identical to an
// uninterrupted run at any worker count; (2) a typed retry policy —
// transient host-side failures (subprocess crash, wall-clock timeout,
// fault-seeded I/O) re-run under capped exponential backoff with
// deterministic seeded jitter, while deterministic simulator outcomes
// (budget exhaustion, deadlock, divergence) fail fast; (3) an opt-in
// subprocess isolation mode that shards cells into kill-on-hang child
// worker processes, so a wedged or OOMed cell cannot take down the
// campaign; and (4) graceful degradation — cells that fail permanently are
// recorded in the artifact's degraded block with a ready-to-run repro
// command instead of aborting the campaign.
//
// Byte-identity across interruption is the design invariant everything hangs
// off: a cell's value is marshaled to canonical JSON exactly once, at the
// moment it completes, and both the store and the caller see those same
// bytes — so resumed, re-sharded, and uninterrupted campaigns cannot drift.
// Only successes are stored: a terminal failure is recomputed on resume, and
// a deterministic one reproduces the same error text and class. The CLIs'
// -journal DIR and the simulation server's cache are the same store, so
// both check, resume and deduplicate through this one code path. The seeded
// chaos harness (ChaosOptions, `make chaos`) kills campaigns at randomized
// store writes and asserts resume-to-identity.
package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"

	"invisispec/internal/artifact"
	"invisispec/internal/memo"
	"invisispec/internal/runner"
)

// Cell is one unit of campaign work.
type Cell struct {
	// Name labels the cell in progress lines and degraded blocks.
	Name string
	// Spec is the cell's JSON-serializable identity: everything that
	// determines its deterministic output (workload, defense, consistency,
	// seed, budget, kernel, ...). Its canonical JSON is content-hashed into
	// the checkpoint key, and in isolation mode it is shipped to the worker
	// process, which must be able to reconstruct the work from it alone.
	Spec any
	// Timeout bounds each attempt's host wall-clock time (0 = Options.CellTimeout).
	Timeout time.Duration
	// Run does the work in-process. The returned value must marshal to JSON;
	// those bytes are what the store and the caller both see.
	Run func(ctx context.Context) (any, error)
}

// Outcome is one cell's terminal result.
type Outcome struct {
	Index    int
	Name     string
	Key      string          // content hash of the cell's Spec
	Value    json.RawMessage // canonical JSON of the cell's value; nil when Err != nil
	Err      error           // terminal failure (degraded or cancelled cell)
	Class    Class           // Err's classification (ClassNone on success)
	Attempts int             // how many times the cell ran this run (0 if cached or never started)
	// Cached marks a cell whose value came from Options.Store — a prior
	// run's checkpoint or a concurrent caller — instead of running.
	Cached bool
	// HostNS is host wall-clock spent on the cell this run (a store read
	// for cached cells) — nondeterministic, for host blocks only.
	HostNS int64
}

// ErrKilled is returned by a campaign whose chaos harness reached its
// configured kill point: the run aborted mid-flight as if SIGKILLed, leaving
// the store for a resume.
var ErrKilled = errors.New("campaign: killed at chaos kill point")

// ChaosOptions is the seeded chaos harness: deterministic fault injection
// and kill points for the kill/resume self-tests (`make chaos`) and the CI
// chaos job. Zero value = no chaos.
type ChaosOptions struct {
	// Seed drives fault-site selection deterministically.
	Seed int64
	// KillAtWrite refuses the Nth checkpoint store write and every later
	// one and aborts the campaign with ErrKilled: the state a SIGKILL
	// inside the store's temp-file-plus-rename write leaves (0 = off).
	KillAtWrite int
	// FaultEveryN injects one transient failure into the first attempt of
	// every cell whose seeded hash lands on 0 mod N, exercising the retry
	// path under chaos (0 = off).
	FaultEveryN int
}

// Options tunes a campaign run.
type Options struct {
	// Workers is the pool width (<=0: GOMAXPROCS, capped at the cell count).
	Workers int
	// Retries is how many times a transient failure re-runs after its first
	// attempt. Deterministic failures are never retried regardless.
	Retries int
	// BackoffBase is the first retry's delay (default 100ms); each further
	// retry doubles it, capped at BackoffMax (default 5s). A deterministic
	// jitter in [0, delay/2) derived from (Seed, cell key, attempt) is
	// added so a herd of retrying cells decorrelates reproducibly.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed feeds the retry jitter (and nothing else): any value is fine,
	// the same value reproduces the same schedule.
	Seed int64
	// CellTimeout bounds each attempt of cells that don't set their own.
	CellTimeout time.Duration
	// Store is the checkpoint (nil = no checkpointing). Every cell resolves
	// through Store.Do: a stored value is replayed byte-identically without
	// running the cell, concurrent callers of the same key share one
	// computation, and a fresh success is stored before the cell counts as
	// done. A store write that fails aborts the campaign.
	Store *memo.Store
	// Isolate, when non-nil, runs every attempt in a child worker process
	// with kill-on-hang semantics (see IsolateOptions).
	Isolate *IsolateOptions
	// Exec, when non-nil (and Isolate is nil), replaces the in-process
	// attempt: it receives the cell and its content key and returns the
	// cell's canonical JSON value. The simulation server uses it as its
	// compute gate (drain refusal, global compute slots). The returned
	// RawMessage is passed through to the store and the Outcome
	// byte-for-byte. Exec runs under the same per-attempt timeout, panic
	// recovery and retry as an ordinary attempt, and never for a cell the
	// Store already holds.
	Exec func(ctx context.Context, c Cell, key string) (json.RawMessage, error)
	// Progress receives the pool's per-cell progress lines.
	Progress io.Writer
	// OnProgress receives the pool's structured per-cell completion events
	// (see runner.Options.OnProgress); each event's Value is the cell's
	// Outcome.
	OnProgress func(runner.ProgressEvent)
	// Chaos enables the seeded kill/fault harness.
	Chaos *ChaosOptions

	// sleep replaces the backoff sleep for tests. nil means ctxSleep.
	sleep func(ctx context.Context, d time.Duration) error
}

// Key content-hashes a cell spec's canonical JSON into the checkpoint key.
func Key(spec any) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("campaign: marshaling cell spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Run executes the cells on the bounded pool with checkpointing, retry, and
// (optionally) process isolation, returning one Outcome per cell in cell
// order. Per-cell failures degrade rather than abort: Run returns an error
// only for campaign-level problems — an invalid cell set, a failed
// checkpoint write, a cancelled context, or the chaos harness's ErrKilled.
func Run(ctx context.Context, name string, cells []Cell, opts Options) ([]Outcome, error) {
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 100 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	if opts.sleep == nil {
		opts.sleep = ctxSleep
	}

	outcomes := make([]Outcome, len(cells))
	seen := make(map[string]int, len(cells))
	for i, c := range cells {
		key, err := Key(c.Spec)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", c.Name, err)
		}
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("campaign: cells %s and %s share content key %s — the checkpoint cannot tell them apart",
				cells[prev].Name, c.Name, key)
		}
		seen[key] = i
		outcomes[i] = Outcome{Index: i, Name: c.Name, Key: key}
	}

	// The campaign's own context: a chaos kill or a checkpoint-write
	// failure cancels it so in-flight cells drain at their next cooperative
	// poll, mimicking sudden process death as closely as an in-process
	// harness can.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		abortMu  sync.Mutex
		abortErr error
	)
	abort := func(err error) {
		abortMu.Lock()
		if abortErr == nil {
			abortErr = err
		}
		abortMu.Unlock()
		cancel()
	}
	var cp *checkpoint
	if opts.Store != nil {
		cp = &checkpoint{store: opts.Store, chaos: opts.Chaos, abort: abort}
	}

	tasks := make([]runner.Task, len(cells))
	for i := range cells {
		i := i
		tasks[i] = runner.Task{
			Name: cells[i].Name,
			Run: func(tctx context.Context) (any, error) {
				return runCell(tctx, cells[i], outcomes[i], opts, cp), nil
			},
		}
	}

	trs := runner.RunTasks(runCtx, tasks, runner.Options{Jobs: opts.Workers, Progress: opts.Progress, OnProgress: opts.OnProgress})
	for i, tr := range trs {
		if tr.Err != nil {
			// Pool-level failure: the cell never produced an Outcome (not
			// started before cancellation, or the campaign plumbing itself
			// panicked). Never stored, so a resume re-runs it.
			outcomes[i].Err = tr.Err
			outcomes[i].Class = Classify(tr.Err)
		} else {
			outcomes[i] = tr.Value.(Outcome)
		}
		outcomes[i].HostNS = tr.HostNS
	}

	abortMu.Lock()
	err := abortErr
	abortMu.Unlock()
	if err != nil {
		return outcomes, err
	}
	if err := ctx.Err(); err != nil {
		return outcomes, fmt.Errorf("campaign: %s cancelled: %w", name, err)
	}
	return outcomes, nil
}

// checkpoint is one run's handle on Options.Store: the store, the chaos
// harness's write counter, and the abort that a failed write triggers.
type checkpoint struct {
	store *memo.Store
	chaos *ChaosOptions
	abort func(error)

	mu     sync.Mutex
	writes int
}

// admit lets the next store write land unless the chaos harness's kill
// point is reached: the KillAtWrite-th write and every later one are
// refused with ErrKilled.
func (cp *checkpoint) admit() error {
	if cp.chaos == nil || cp.chaos.KillAtWrite <= 0 {
		return nil
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.writes++
	if cp.writes >= cp.chaos.KillAtWrite {
		return ErrKilled
	}
	return nil
}

// runCell resolves one cell to a terminal outcome: through the checkpoint
// store when there is one, settling the cell itself only on a miss.
func runCell(ctx context.Context, c Cell, o Outcome, opts Options, cp *checkpoint) Outcome {
	if cp == nil {
		return settle(ctx, c, o, opts)
	}
	for {
		ran := false
		var fresh Outcome
		val, _, err := cp.store.Do(ctx, o.Key, func(ctx context.Context) ([]byte, error) {
			ran = true
			fresh = settle(ctx, c, o, opts)
			if fresh.Err != nil {
				return nil, fresh.Err // never stored: a resume recomputes it
			}
			if err := cp.admit(); err != nil {
				return nil, err
			}
			return fresh.Value, nil
		})
		switch {
		case ran:
			if err != nil && fresh.Err == nil {
				// The value is correct but did not land. Continuing without
				// durability would let a later crash silently lose work the
				// caller believes checkpointed.
				cp.abort(err)
			}
			return fresh
		case err == nil:
			o.Value, o.Cached = val, true
			return o
		case ctx.Err() != nil:
			o.Err, o.Class = ctx.Err(), ClassCancelled
			return o
		}
		// A concurrent caller's computation of this key failed. Failures
		// are not shared through the store, so settle the cell ourselves.
	}
}

// settle drives one cell to a terminal outcome: attempt, classify, retry
// transients under backoff.
func settle(ctx context.Context, c Cell, o Outcome, opts Options) Outcome {
	for {
		o.Attempts++
		val, err := attempt(ctx, c, o.Key, opts)
		if err == nil && chaosFault(opts.Chaos, o.Key) && o.Attempts == 1 {
			err = fmt.Errorf("campaign: %s: chaos-injected fault: %w", c.Name, ErrTransient)
		}
		class := Classify(err)
		switch class {
		case ClassNone:
			// A value that is already canonical JSON (an Exec hook) passes
			// through untouched — re-marshaling would be identity for
			// compact JSON, but byte-identity is the invariant, so we never
			// rely on that.
			raw, ok := val.(json.RawMessage)
			if !ok {
				var merr error
				raw, merr = json.Marshal(val)
				if merr != nil {
					o.Err = fmt.Errorf("campaign: %s: marshaling cell value: %w", c.Name, merr)
					o.Class = ClassDeterministic
					return o
				}
			}
			o.Value = raw
			return o
		case ClassTransient:
			if o.Attempts <= opts.Retries {
				if serr := opts.sleep(ctx, backoffFor(opts, o.Key, o.Attempts)); serr != nil {
					o.Err, o.Class = serr, ClassCancelled
					return o
				}
				continue
			}
		}
		// Terminal: cancelled, deterministic, or transient with the retry
		// budget exhausted.
		o.Err, o.Class = err, class
		return o
	}
}

// attempt runs one try of the cell, in-process or isolated, with its
// per-attempt wall-clock bound applied.
func attempt(ctx context.Context, c Cell, key string, opts Options) (val any, err error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = opts.CellTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if opts.Isolate != nil {
		return runIsolated(ctx, c, opts.Isolate)
	}
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, &PanicError{Cell: c.Name, Value: r}
		}
	}()
	if opts.Exec != nil {
		return opts.Exec(ctx, c, key)
	}
	return c.Run(ctx)
}

// backoffFor computes the capped exponential backoff plus deterministic
// jitter for a cell's next retry.
func backoffFor(opts Options, key string, attempt int) time.Duration {
	d := opts.BackoffBase
	for i := 1; i < attempt && d < opts.BackoffMax; i++ {
		d *= 2
	}
	if d > opts.BackoffMax {
		d = opts.BackoffMax
	}
	// Seeded jitter in [0, d/2): same (seed, key, attempt) -> same delay,
	// so retry schedules reproduce exactly.
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", opts.Seed, key, attempt)
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	if d+jitter > opts.BackoffMax {
		return opts.BackoffMax
	}
	return d + jitter
}

// chaosFault reports whether the chaos harness injects a transient fault
// into this cell's first attempt.
func chaosFault(c *ChaosOptions, key string) bool {
	if c == nil || c.FaultEveryN <= 0 {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", c.Seed, key)
	return h.Sum64()%uint64(c.FaultEveryN) == 0
}

// ctxSleep sleeps for d or until the context dies, whichever comes first.
func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Degraded collects the cells that failed permanently, in cell order, for an
// artifact's degraded block. Cancelled cells are excluded — they are not a
// campaign outcome, just an aborted campaign. repro, when non-nil, supplies
// the per-cell ready-to-run reproduction command.
func Degraded(outcomes []Outcome, repro func(o Outcome) string) []artifact.DegradedCell {
	var out []artifact.DegradedCell
	for _, o := range outcomes {
		if o.Err == nil || o.Class == ClassCancelled {
			continue
		}
		d := artifact.DegradedCell{
			Name:     o.Name,
			Key:      o.Key,
			Error:    o.Err.Error(),
			Class:    o.Class.String(),
			Attempts: o.Attempts,
		}
		if repro != nil {
			d.Repro = repro(o)
		}
		out = append(out, d)
	}
	return out
}
