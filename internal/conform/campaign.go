package conform

// The campaign fans generated programs through the resilient execution
// layer (internal/campaign): one cell per program, each cell running the
// full configuration matrix against the golden model, with checkpoints, transient-failure retries, and optional subprocess
// isolation. The report artifact follows the repo's bench/leakage pattern
// — a schema-versioned JSON whose deterministic payload is byte-identical
// for the same (seed, n) at any worker count, with all wall-clock data
// quarantined in a host block.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"invisispec/internal/artifact"
	"invisispec/internal/campaign"
	"invisispec/internal/config"
)

// ReportSchema identifies the campaign artifact format.
const ReportSchema = "conform-report/v1"

// Options configures a campaign.
type Options struct {
	Seed uint64 // campaign seed; program i derives from Mix(Seed, i)
	N    int    // number of programs
	Jobs int    // worker count (<=0: GOMAXPROCS)
	// Indices restricts the campaign to specific program indices (the
	// -only flag); nil means 0..N-1.
	Indices []int
	// Defenses restricts the per-program configuration matrix to a defense
	// subset (the -defenses flag); nil means every registered scheme.
	Defenses []config.Defense
	// Shrink minimizes every diverging program and embeds the minimized
	// listing and a ready-to-commit corpus test in the report.
	Shrink         bool
	MaxShrinkEvals int       // oracle budget per shrink (default 2000)
	Progress       io.Writer // optional per-program progress lines
	Timeout        time.Duration
	// Campaign carries the resilience knobs (checkpoint store/retries/
	// isolation/chaos); Jobs, Timeout, and Progress above override its
	// pool fields.
	Campaign campaign.Options
	// Repro, when non-nil, overrides the default reproduction command
	// recorded for a degraded cell.
	Repro func(ProgSpec) string
}

// ProgSpec is one conformance cell's content identity: everything that
// determines the program's deterministic outcome. It is the checkpoint
// key and the isolation wire format for conformance campaigns.
type ProgSpec struct {
	CampaignSeed   uint64 `json:"campaign_seed"`
	Index          int    `json:"index"`
	Shrink         bool   `json:"shrink,omitempty"`
	MaxShrinkEvals int    `json:"max_shrink_evals,omitempty"`
	// Defenses restricts the configuration matrix to these registry names
	// (nil: every registered scheme). Part of the spec — and therefore the
	// checkpoint key — because the cell's outcome depends on it.
	Defenses []string `json:"defenses,omitempty"`
}

// ProgramResult is one program's deterministic outcome.
type ProgramResult struct {
	Index   int    `json:"index"`
	Seed    uint64 `json:"seed"`
	Insts   int    `json:"insts"`
	Retired uint64 `json:"retired"`
	Faults  uint64 `json:"faults,omitempty"`
	// Error records a harness-level failure (the task died before the
	// matrix completed); divergences are not errors.
	Error       string       `json:"error,omitempty"`
	Divergences []Divergence `json:"divergences,omitempty"`
	// Shrink output, present only for diverging programs when enabled.
	MinimizedLen int      `json:"minimized_len,omitempty"`
	ShrinkEvals  int      `json:"shrink_evals,omitempty"`
	Minimized    []string `json:"minimized_asm,omitempty"`
	ReproGo      string   `json:"repro_go,omitempty"`
}

// Host quarantines the nondeterministic side of the artifact.
type Host struct {
	WallMS float64 `json:"wall_ms"`
	Jobs   int     `json:"jobs"`
	CPUs   int     `json:"cpus"`
	GoOS   string  `json:"goos"`
	GoVer  string  `json:"go"`
}

// Report is a full campaign artifact.
type Report struct {
	Schema    string          `json:"schema"`
	Name      string          `json:"name"`
	Seed      uint64          `json:"seed"`
	Programs  int             `json:"programs"`
	Configs   []string        `json:"configs"`
	Diverging int             `json:"diverging"`
	Errors    int             `json:"errors"`
	Runs      []ProgramResult `json:"runs"`
	// Degraded lists the cells whose runs exhausted their retry budget
	// (campaign graceful degradation): the campaign completed without
	// them, the CLI exits non-zero, and each entry carries a ready-to-run
	// repro command.
	Degraded []artifact.DegradedCell `json:"degraded,omitempty"`
	Host     *Host                   `json:"host,omitempty"`
}

// RunProgSpec generates and checks one program from its spec alone,
// shrinking on divergence — the in-process cell body and the -cellworker
// handler for isolation mode. Deterministic outcomes (golden-model
// failures, divergences) are embedded in the ProgramResult; only
// execution-layer failures (context cancellation or expiry) surface as
// the returned error, so the campaign's retry policy never re-runs a
// divergence but does re-run a timed-out cell.
func RunProgSpec(ctx context.Context, s ProgSpec) (ProgramResult, error) {
	seed := Mix(s.CampaignSeed, uint64(s.Index))
	p := Generate(seed)
	p.Name = fmt.Sprintf("conform-%d-%x", s.Index, seed)
	res := ProgramResult{Index: s.Index, Seed: seed, Insts: len(p.Insts)}
	ref, err := RunRef(p)
	if err != nil {
		res.Error = err.Error()
		return res, nil
	}
	res.Retired, res.Faults = ref.Retired, ref.Faults
	cfgs, err := s.configs()
	if err != nil {
		// A stale checkpoint or hand-edited spec naming an unregistered
		// scheme is a deterministic input error, not a transient failure:
		// embed it so the retry policy never re-runs the cell.
		res.Error = err.Error()
		return res, nil
	}
	for _, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if reason := CheckConfig(p, cfg, ref); reason != "" {
			res.Divergences = append(res.Divergences, Divergence{Config: cfg.String(), Reason: reason})
		}
	}
	if len(res.Divergences) == 0 || !s.Shrink {
		return res, nil
	}
	// Minimize against the first diverging configuration: one oracle
	// evaluation is then a single golden run plus a single simulation.
	var first Config
	for _, cfg := range cfgs {
		if cfg.String() == res.Divergences[0].Config {
			first = cfg
		}
	}
	budget := s.MaxShrinkEvals
	if budget <= 0 {
		budget = 2000
	}
	min, st := Shrink(p, OracleFor([]Config{first}), budget)
	min.Name = p.Name + "-min"
	res.MinimizedLen = len(min.Insts)
	res.ShrinkEvals = st.Evals
	res.Minimized = Listing(min)
	res.ReproGo = EmitGoTest(fmt.Sprintf("Seed%x", seed), res.Divergences[0].Config+": "+res.Divergences[0].Reason, min)
	return res, nil
}

// configs resolves the spec's defense subset to the configuration matrix
// (nil: the full registered matrix).
func (s ProgSpec) configs() ([]Config, error) {
	if len(s.Defenses) == 0 {
		return Configs(), nil
	}
	defs := make([]config.Defense, len(s.Defenses))
	for i, n := range s.Defenses {
		d, err := config.ParseDefense(n)
		if err != nil {
			return nil, err
		}
		defs[i] = d
	}
	return ConfigsFor(defs), nil
}

// indices resolves Options.Indices (nil means every program).
func (o Options) indices() []int {
	if o.Indices != nil {
		return o.Indices
	}
	out := make([]int, o.N)
	for i := range out {
		out[i] = i
	}
	return out
}

// Campaign runs the selected programs through the matrix via the campaign
// layer and assembles the report. Runs are addressed by cell index, so the
// deterministic payload is byte-identical regardless of worker count,
// completion order, or whether cells were replayed from a checkpoint store.
// The returned error is execution-layer only (a checkpoint failure or an
// injected chaos kill); per-program failures degrade into the report.
func Campaign(ctx context.Context, opts Options) (*Report, error) {
	idxs := opts.indices()
	var defNames []string
	for _, d := range opts.Defenses {
		if _, err := d.Scheme(); err != nil {
			return nil, err
		}
		defNames = append(defNames, d.String())
	}
	cells := make([]campaign.Cell, len(idxs))
	for i, idx := range idxs {
		spec := ProgSpec{CampaignSeed: opts.Seed, Index: idx, Shrink: opts.Shrink, MaxShrinkEvals: opts.MaxShrinkEvals, Defenses: defNames}
		cells[i] = campaign.Cell{
			Name:    fmt.Sprintf("conform-%d", idx),
			Spec:    spec,
			Timeout: opts.Timeout,
			Run: func(ctx context.Context) (any, error) {
				return RunProgSpec(ctx, spec)
			},
		}
	}
	copts := opts.Campaign
	copts.Workers = opts.Jobs
	copts.Progress = opts.Progress
	start := time.Now()
	name := fmt.Sprintf("conform-seed%d", opts.Seed)
	outcomes, err := campaign.Run(ctx, name, cells, copts)
	if err != nil {
		return nil, err
	}
	matrix := Configs()
	if len(opts.Defenses) > 0 {
		matrix = ConfigsFor(opts.Defenses)
	}
	var cfgNames []string
	for _, c := range matrix {
		cfgNames = append(cfgNames, c.String())
	}
	rep := &Report{
		Schema:   ReportSchema,
		Name:     name,
		Seed:     opts.Seed,
		Programs: len(idxs),
		Configs:  cfgNames,
		Runs:     make([]ProgramResult, len(idxs)),
	}
	for i, o := range outcomes {
		idx := idxs[i]
		switch {
		case o.Err != nil:
			// Execution-layer failure after the retry budget (timeout,
			// panic, worker crash); the cell also lands in Degraded.
			rep.Runs[i] = ProgramResult{Index: idx, Seed: Mix(opts.Seed, uint64(idx)), Error: o.Err.Error()}
		default:
			if err := json.Unmarshal(o.Value, &rep.Runs[i]); err != nil {
				return nil, fmt.Errorf("conform: decoding result for %s: %w", o.Name, err)
			}
		}
		if rep.Runs[i].Error != "" {
			rep.Errors++
		}
		if len(rep.Runs[i].Divergences) > 0 {
			rep.Diverging++
		}
	}
	rep.Degraded = campaign.Degraded(outcomes, func(o campaign.Outcome) string {
		spec := ProgSpec{CampaignSeed: opts.Seed, Index: idxs[o.Index], Shrink: opts.Shrink, MaxShrinkEvals: opts.MaxShrinkEvals, Defenses: defNames}
		if opts.Repro != nil {
			return opts.Repro(spec)
		}
		return fmt.Sprintf("go run ./cmd/conformfuzz -seed %d -n %d -only %d -shrink", opts.Seed, opts.N, spec.Index)
	})
	rep.Host = &Host{
		WallMS: float64(time.Since(start).Nanoseconds()) / 1e6,
		Jobs:   opts.Jobs,
		CPUs:   runtime.NumCPU(),
		GoOS:   runtime.GOOS,
		GoVer:  runtime.Version(),
	}
	return rep, nil
}

// DeterministicPayload renders the report without its host block, for
// byte-identity comparison across worker counts.
func (r *Report) DeterministicPayload() ([]byte, error) {
	stripped := *r
	stripped.Host = nil
	out, err := json.MarshalIndent(&stripped, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("conform: marshaling report payload: %w", err)
	}
	return out, nil
}

// WriteReportJSON writes the full artifact as indented JSON.
func WriteReportJSON(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("conform: writing report JSON: %w", err)
	}
	return nil
}

// ReadReportJSON parses an artifact and validates its schema tag.
func ReadReportJSON(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("conform: reading report JSON: %w", err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("conform: report schema %q, want %q", r.Schema, ReportSchema)
	}
	return &r, nil
}
