package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"invisispec/internal/invariant"
	"invisispec/internal/memo"
	"invisispec/internal/sim"
)

// synthSpec is the content identity of the synthetic cells the campaign
// tests run: cheap, deterministic, JSON-round-trippable.
type synthSpec struct {
	Campaign string `json:"campaign"`
	I        int    `json:"i"`
}

// synthValue is what a synthetic cell computes.
type synthValue struct {
	I  int `json:"i"`
	Sq int `json:"sq"`
}

// synthCells builds n deterministic cells; failAt maps cell indices to the
// error their Run always returns.
func synthCells(name string, n int, failAt map[int]error) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Name: fmt.Sprintf("%s-%d", name, i),
			Spec: synthSpec{Campaign: name, I: i},
			Run: func(ctx context.Context) (any, error) {
				if err := failAt[i]; err != nil {
					return nil, err
				}
				return synthValue{I: i, Sq: i * i}, nil
			},
		}
	}
	return cells
}

// payload concatenates the deterministic outcome bytes the way an artifact
// consumer would: value bytes for successes, error text for failures.
func payload(t *testing.T, outcomes []Outcome) string {
	t.Helper()
	var b strings.Builder
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(&b, "%s ERR %s\n", o.Name, o.Err.Error())
			continue
		}
		fmt.Fprintf(&b, "%s %s\n", o.Name, o.Value)
	}
	return b.String()
}

func noSleep(opts *Options) {
	opts.sleep = func(ctx context.Context, d time.Duration) error { return nil }
}

func TestRunBasicOrderAndValues(t *testing.T) {
	cells := synthCells("basic", 9, nil)
	outcomes, err := Run(context.Background(), "basic", cells, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(cells) {
		t.Fatalf("got %d outcomes for %d cells", len(outcomes), len(cells))
	}
	for i, o := range outcomes {
		if o.Index != i || o.Name != cells[i].Name {
			t.Errorf("outcome %d: index %d name %q", i, o.Index, o.Name)
		}
		if o.Err != nil || o.Attempts != 1 || o.Cached {
			t.Errorf("outcome %d: err=%v attempts=%d cached=%v", i, o.Err, o.Attempts, o.Cached)
		}
		want, _ := json.Marshal(synthValue{I: i, Sq: i * i})
		if string(o.Value) != string(want) {
			t.Errorf("outcome %d: value %s, want %s", i, o.Value, want)
		}
	}
}

func TestRunRejectsDuplicateKeys(t *testing.T) {
	cells := synthCells("dup", 2, nil)
	cells[1].Spec = cells[0].Spec
	if _, err := Run(context.Background(), "dup", cells, Options{}); err == nil ||
		!strings.Contains(err.Error(), "share content key") {
		t.Fatalf("duplicate specs not rejected: %v", err)
	}
}

// TestClassifyTable pins the full retry taxonomy: exactly which failures are
// transient (retried), deterministic (fail fast), and cancelled.
func TestClassifyTable(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("outer: %w", err) }
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassNone},
		{"canceled", context.Canceled, ClassCancelled},
		{"canceled wrapped", wrap(context.Canceled), ClassCancelled},
		{"deadline", context.DeadlineExceeded, ClassTransient},
		{"deadline wrapped", wrap(context.DeadlineExceeded), ClassTransient},
		{"transient sentinel", ErrTransient, ClassTransient},
		{"transient wrapped", wrap(ErrTransient), ClassTransient},
		{"exec exit", wrap(&exec.ExitError{}), ClassTransient},
		{"worker crash", &WorkerCrashError{Cell: "c"}, ClassTransient},
		{"budget", &sim.BudgetError{}, ClassDeterministic},
		{"budget wrapped", wrap(&sim.BudgetError{}), ClassDeterministic},
		{"deadlock", &invariant.DeadlockError{}, ClassDeterministic},
		{"violation", &invariant.ViolationError{Err: errors.New("x")}, ClassDeterministic},
		{"panic", &PanicError{Cell: "c", Value: "boom"}, ClassDeterministic},
		{"remote transient", &RemoteError{Msg: "m", Class: ClassTransient}, ClassTransient},
		{"remote deterministic", &RemoteError{Msg: "m", Class: ClassDeterministic}, ClassDeterministic},
		{"unknown", errors.New("mystery"), ClassDeterministic},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassStringRoundTrip(t *testing.T) {
	for _, c := range []Class{ClassNone, ClassTransient, ClassDeterministic, ClassCancelled} {
		if got := parseClass(c.String()); got != c {
			t.Errorf("parseClass(%q) = %v, want %v", c.String(), got, c)
		}
	}
	if got := parseClass("garbage"); got != ClassDeterministic {
		t.Errorf("unknown class parsed as %v, want deterministic", got)
	}
}

// TestRetryPolicyNeverRetriesDeterministic: the acceptance-criteria table —
// deterministic failures run exactly once no matter the retry budget,
// transient failures consume the full budget, and a transient blip recovers.
func TestRetryPolicyNeverRetriesDeterministic(t *testing.T) {
	cases := []struct {
		name         string
		err          error
		wantAttempts int
		wantClass    Class
	}{
		{"budget error", &sim.BudgetError{}, 1, ClassDeterministic},
		{"deadlock", &invariant.DeadlockError{}, 1, ClassDeterministic},
		{"violation", &invariant.ViolationError{Err: errors.New("swmr")}, 1, ClassDeterministic},
		{"unknown", errors.New("mystery"), 1, ClassDeterministic},
		{"transient", fmt.Errorf("io blip: %w", ErrTransient), 4, ClassTransient},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var runs atomic.Int32
			cells := []Cell{{
				Name: "cell",
				Spec: synthSpec{Campaign: "retry-" + c.name, I: 0},
				Run: func(ctx context.Context) (any, error) {
					runs.Add(1)
					return nil, c.err
				},
			}}
			opts := Options{Retries: 3}
			noSleep(&opts)
			outcomes, err := Run(context.Background(), "retry", cells, opts)
			if err != nil {
				t.Fatal(err)
			}
			o := outcomes[0]
			if o.Err == nil || o.Class != c.wantClass {
				t.Fatalf("outcome err=%v class=%v, want class %v", o.Err, o.Class, c.wantClass)
			}
			if int(runs.Load()) != c.wantAttempts || o.Attempts != c.wantAttempts {
				t.Fatalf("ran %d times (outcome says %d), want %d", runs.Load(), o.Attempts, c.wantAttempts)
			}
		})
	}
}

func TestRetryRecoversFromTransientBlip(t *testing.T) {
	var runs atomic.Int32
	cells := []Cell{{
		Name: "flaky",
		Spec: synthSpec{Campaign: "blip", I: 0},
		Run: func(ctx context.Context) (any, error) {
			if runs.Add(1) < 3 {
				return nil, fmt.Errorf("blip %d: %w", runs.Load(), ErrTransient)
			}
			return synthValue{I: 0, Sq: 0}, nil
		},
	}}
	opts := Options{Retries: 3}
	noSleep(&opts)
	outcomes, err := Run(context.Background(), "blip", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if o := outcomes[0]; o.Err != nil || o.Attempts != 3 {
		t.Fatalf("outcome err=%v attempts=%d, want success on attempt 3", o.Err, o.Attempts)
	}
}

// TestBackoffDeterministicAndCapped: same (seed, key, attempt) -> same
// delay; delays grow from base and never exceed the cap.
func TestBackoffDeterministicAndCapped(t *testing.T) {
	opts := Options{BackoffBase: 100 * time.Millisecond, BackoffMax: 1 * time.Second, Seed: 42}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := backoffFor(opts, "key", attempt)
		d2 := backoffFor(opts, "key", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d1, d2)
		}
		if d1 < opts.BackoffBase || d1 > opts.BackoffMax {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d1, opts.BackoffBase, opts.BackoffMax)
		}
		if d1 < prev && d1 != opts.BackoffMax {
			t.Fatalf("attempt %d: backoff %v shrank below %v before the cap", attempt, d1, prev)
		}
		prev = d1
	}
	if backoffFor(opts, "key", 1) == backoffFor(Options{BackoffBase: opts.BackoffBase, BackoffMax: opts.BackoffMax, Seed: 43}, "key", 1) {
		t.Log("seeds 42 and 43 collided on attempt 1 jitter (possible but suspicious)")
	}
}

// TestRetrySleepsObserveBackoff: the retry loop actually sleeps the
// scheduled backoff (captured via the test hook) between attempts.
func TestRetrySleepsObserveBackoff(t *testing.T) {
	var slept []time.Duration
	cells := []Cell{{
		Name: "flaky",
		Spec: synthSpec{Campaign: "sleeps", I: 0},
		Run: func(ctx context.Context) (any, error) {
			return nil, fmt.Errorf("blip: %w", ErrTransient)
		},
	}}
	opts := Options{Retries: 2, Seed: 7}
	opts.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	if _, err := Run(context.Background(), "sleeps", cells, opts); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (retries)", len(slept))
	}
	key, _ := Key(synthSpec{Campaign: "sleeps", I: 0})
	for i, d := range slept {
		if want := backoffFor(Options{BackoffBase: 100 * time.Millisecond, BackoffMax: 5 * time.Second, Seed: 7}, key, i+1); d != want {
			t.Errorf("sleep %d = %v, want %v", i, d, want)
		}
	}
}

// TestCancelledCellsNotJournaled: a cancelled campaign stores nothing for
// the interrupted cells, so a resume re-runs them.
func TestCancelledCellsNotJournaled(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := synthCells("cancel", 4, nil)
	outcomes, err := Run(ctx, "cancel", cells, Options{Store: openStore(t, dir)})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v", err)
	}
	for _, o := range outcomes {
		if o.Err == nil {
			t.Fatalf("cell %s succeeded under a dead context", o.Name)
		}
		if o.Class != ClassCancelled {
			t.Fatalf("cell %s classified %v, want cancelled", o.Name, o.Class)
		}
	}
	if n := openStore(t, dir).Stats().Entries; n != 0 {
		t.Fatalf("cancelled campaign stored %d entries, want 0", n)
	}
	// Resume after the abort: every cell runs fresh.
	outcomes, err = Run(context.Background(), "cancel", cells, Options{Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Err != nil || o.Cached {
			t.Fatalf("cell %s after resume: err=%v cached=%v", o.Name, o.Err, o.Cached)
		}
	}
}

// TestDegradedBlock: permanent failures land in the degraded list with their
// class, attempts, and repro command; successes and cancellations don't.
func TestDegradedBlock(t *testing.T) {
	boom := errors.New("permanently broken")
	cells := synthCells("degraded", 4, map[int]error{2: boom})
	opts := Options{Retries: 2}
	noSleep(&opts)
	outcomes, err := Run(context.Background(), "degraded", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	deg := Degraded(outcomes, func(o Outcome) string { return fmt.Sprintf("rerun -only %d", o.Index) })
	if len(deg) != 1 {
		t.Fatalf("degraded block has %d cells, want 1: %+v", len(deg), deg)
	}
	d := deg[0]
	if d.Name != "degraded-2" || d.Class != "deterministic" || d.Attempts != 1 {
		t.Fatalf("degraded cell wrong: %+v", d)
	}
	if d.Repro != "rerun -only 2" {
		t.Fatalf("repro = %q", d.Repro)
	}
	if !strings.Contains(d.Error, "permanently broken") {
		t.Fatalf("error text lost: %q", d.Error)
	}
	// Cancelled outcomes are not degradations.
	if got := Degraded([]Outcome{{Name: "c", Err: context.Canceled, Class: ClassCancelled}}, nil); len(got) != 0 {
		t.Fatalf("cancelled outcome counted as degraded: %+v", got)
	}
}

// TestJournalTornTailTolerated: a SIGKILL inside a checkpoint write leaves
// a half-written temp file and no entry for that cell; resume must shrug
// the orphan off and re-run only that cell.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	cells := synthCells("torn", 3, nil)
	outcomes, err := Run(context.Background(), "torn", cells, Options{Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	// Turn the last cell's entry into the torn write a crash mid-Put
	// leaves: half its bytes under a temp name, nothing under its own.
	entry := filepath.Join(dir, outcomes[2].Key+".cell")
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-torn"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(entry); err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(context.Background(), "torn", cells, Options{Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for i, o := range resumed {
		if o.Err != nil {
			t.Fatalf("cell %s failed on resume: %v", o.Name, o.Err)
		}
		if string(o.Value) != string(outcomes[i].Value) {
			t.Fatalf("cell %s drifted across torn-write resume:\n%s\nvs\n%s", o.Name, o.Value, outcomes[i].Value)
		}
		if o.Cached {
			cached++
		}
	}
	if cached != 2 || resumed[2].Cached {
		t.Fatalf("%d cells replayed from the torn store (cell 2 cached: %v), want 2 and not cell 2", cached, resumed[2].Cached)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-torn")); !os.IsNotExist(err) {
		t.Fatalf("torn temp file survived the resume (err=%v)", err)
	}
}

// TestJournalFreshTruncates: without -resume the store is cleared first, so
// nothing is replayed and the store holds exactly this run's keys.
func TestJournalFreshTruncates(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), "fresh", synthCells("fresh", 3, nil), Options{Store: openStore(t, dir)}); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("fresh", flag.ContinueOnError)
	build := AddFlags(fs)
	if err := fs.Parse([]string{"-journal", dir}); err != nil {
		t.Fatal(err)
	}
	opts, err := build()
	if err != nil {
		t.Fatal(err)
	}
	cells := synthCells("fresh", 2, nil)
	outcomes, err := Run(context.Background(), "fresh", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Cached {
			t.Fatalf("cell %s replayed without -resume", o.Name)
		}
	}
	got := storedKeys(t, dir)
	if len(got) != len(outcomes) || !got[outcomes[0].Key] || !got[outcomes[1].Key] {
		t.Fatalf("store holds %v, want exactly this run's keys %s and %s", got, outcomes[0].Key, outcomes[1].Key)
	}
}

// TestJournaledFailureReplaysOnResume: only successes are stored, so a
// resumed campaign re-runs a failed cell exactly once, and its
// deterministic failure reproduces the degraded entry byte-for-byte.
func TestJournaledFailureReplaysOnResume(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("deterministically broken")
	cells := synthCells("degjournal", 3, map[int]error{1: boom})
	opts := Options{Store: openStore(t, dir)}
	noSleep(&opts)
	outcomes, err := Run(context.Background(), "degjournal", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	var reruns atomic.Int32
	cells[1].Run = func(ctx context.Context) (any, error) {
		reruns.Add(1)
		return nil, boom
	}
	opts.Store = openStore(t, dir)
	resumed, err := Run(context.Background(), "degjournal", cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if reruns.Load() != 1 {
		t.Fatalf("failed cell re-ran %d times on resume, want 1", reruns.Load())
	}
	if !resumed[0].Cached || !resumed[2].Cached || resumed[1].Cached {
		t.Fatalf("cached flags on resume: %v %v %v, want successes cached and the failure not",
			resumed[0].Cached, resumed[1].Cached, resumed[2].Cached)
	}
	want, err := json.Marshal(Degraded(outcomes, nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(Degraded(resumed, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(Degraded(resumed, nil)) != 1 || !bytes.Equal(got, want) {
		t.Fatalf("degraded block drifted across resume:\n%s\nvs\n%s", got, want)
	}
}

// TestCheckpointWriteFailureAborts: a cell whose value cannot be stored
// aborts the campaign with an error instead of finishing without
// durability.
func TestCheckpointWriteFailureAborts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	store := openStore(t, dir)
	// With the directory gone every store write fails, even for root.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), "unwritable", synthCells("unwritable", 2, nil), Options{Store: store})
	if err == nil {
		t.Fatal("campaign finished although no checkpoint write landed")
	}
}

// openStore opens the checkpoint store at dir, as a fresh process would.
func openStore(t *testing.T, dir string) *memo.Store {
	t.Helper()
	s, err := memo.Open(dir, memo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// storedKeys lists the keys whose entries are on disk in dir.
func storedKeys(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, de := range names {
		if key, ok := strings.CutSuffix(de.Name(), ".cell"); ok {
			keys[key] = true
		}
	}
	return keys
}
