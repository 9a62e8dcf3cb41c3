// Package leakage is the automated leakage-testing subsystem: a seeded
// corpus of transient-attack variants (parameterizing the Spectre v1 and
// Meltdown templates in internal/workload), a statistical distinguisher
// that turns repeated per-probe-line latency measurements into leak
// verdicts with confidence scores, and a scanner that fans the
// corpus x defense matrix through the internal/runner worker pool and
// emits a deterministic JSON report. cmd/leakscan wires it into CI as a
// security regression gate: the InvisiSpec defenses must block every
// attack they claim to block, and the attacks themselves must still work
// on the undefended baseline (a corpus whose attacks silently stopped
// leaking tests nothing).
package leakage

import (
	"fmt"

	"invisispec/internal/config"
	"invisispec/internal/isa"
	"invisispec/internal/workload"
)

// Template selects which transient-attack program family a spec
// instantiates.
type Template int

const (
	// TemplateSpectre is the same-thread Spectre v1 bounds-check bypass
	// (workload.SpectreV1With): attacker and victim share one core, the
	// paper's SameThread setting.
	TemplateSpectre Template = iota
	// TemplateSpectreCross is the cross-thread placement
	// (workload.SpectreV1CrossThread): victim on core 0, attacker on
	// core 1, leaking through the shared LLC.
	TemplateSpectreCross
	// TemplateMeltdown is the exception-based attack (workload.Meltdown):
	// a privileged load faults at retirement but its dependents run
	// transiently. Spectre-model defenses do not squash exception-caused
	// transients, so this template distinguishes the Spectre and
	// Futuristic threat models.
	TemplateMeltdown
	// TemplateSpectreBTB is Spectre v2 (workload.SpectreV2With): the
	// attacker poisons the BTB so the victim's indirect dispatch
	// transiently jumps to a secret-reading gadget. TrainRounds counts
	// BTB training calls; FlushBounds flushes the dispatch slot.
	TemplateSpectreBTB
	// TemplateSpectreRSB is the return-based variant
	// (workload.SpectreRSBWith): a deep call chain whose innermost frame
	// returns through a flushed memory slot, so the RAS-predicted return
	// site — the gadget — runs transiently. TrainRounds is the nesting
	// depth; FlushBounds flushes the return slot.
	TemplateSpectreRSB
	// TemplateSSB is the speculative store bypass (workload.SSBWith): a
	// load issues past an older store with an unresolved address and
	// reads the stale secret. No branch opens the window, so
	// branch-scoped defenses never engage — the store-queue analogue of
	// Meltdown's threat-model split. TrainRounds counts bypass rounds.
	TemplateSSB
	// TemplateLLCSBContend is the cross-core speculative-buffer residue
	// test (workload.LLCSBContendWith): an autonomous victim runs one
	// out-of-bounds gadget call whose transient loads burst at the
	// secret-indexed line; a purely passive observer on the second core
	// then times the probe array. Under InvisiSpec the fills are confined
	// to the victim's per-core LLC-SB and must stay invisible.
	TemplateLLCSBContend
)

// String names the template the way the report's cells do.
func (t Template) String() string {
	switch t {
	case TemplateSpectre:
		return "spectre"
	case TemplateSpectreCross:
		return "spectre-cross"
	case TemplateMeltdown:
		return "meltdown"
	case TemplateSpectreBTB:
		return "spectre-btb"
	case TemplateSpectreRSB:
		return "spectre-rsb"
	case TemplateSSB:
		return "ssb"
	case TemplateLLCSBContend:
		return "llcsb-contend"
	}
	return fmt.Sprintf("Template(%d)", int(t))
}

// AttackSpec is one corpus entry: a fully-parameterized transient attack
// that assembles to concrete programs. Every field is plain data so specs
// serialize, compare, and replay deterministically.
type AttackSpec struct {
	// ID names the spec in reports, errors, and progress lines. Corpus
	// generators derive it from the parameters so a report row is
	// reproducible from its name alone.
	ID string
	// Template picks the program family.
	Template Template
	// Secret is the byte the attack tries to exfiltrate. Must be nonzero
	// (probe line 0 collects training/prefetch residue) and, for Spectre
	// templates, less than ProbeLines.
	Secret byte
	// TrainRounds, ProbeLines, ProbeStride, FlushBounds, FlushProbe and
	// Annotate parameterize the Spectre templates exactly as
	// workload.SpectreParams does; Meltdown ignores them (its probe
	// geometry is fixed at 256 lines x 64 bytes).
	TrainRounds int
	ProbeLines  int
	ProbeStride int
	FlushBounds bool
	FlushProbe  bool
	Annotate    bool
	// TrustAnnotations runs the machine with
	// config.Machine.TrustSafeAnnotations set (§XI): annotated-safe loads
	// bypass the USL machinery. Combined with Annotate this re-opens the
	// leak under IS-Sp/IS-Fu — deliberately, to pin the threat-model
	// boundary; the report marks those cells as expected leaks.
	TrustAnnotations bool
	// Workload, when set, resolves the programs through the workload
	// registry instead of assembling the template — the imported-trace
	// path: a recorded attack replays byte-identically while the template
	// and geometry fields keep driving the expected-outcome matrix, the
	// probe scan, and the machine shape. The named workload must have been
	// recorded from a program this spec's parameters describe; the
	// omitempty tag keeps checkpoint keys of template-assembled specs
	// unchanged.
	Workload string `json:",omitempty"`
}

// params converts the spec to the workload parameter block.
func (s AttackSpec) params() workload.SpectreParams {
	return workload.SpectreParams{
		Secret:      s.Secret,
		TrainRounds: s.TrainRounds,
		ProbeLines:  s.ProbeLines,
		ProbeStride: s.ProbeStride,
		FlushBounds: s.FlushBounds,
		FlushProbe:  s.FlushProbe,
		Annotate:    s.Annotate,
	}
}

// Validate checks the spec assembles to a well-formed attack.
func (s AttackSpec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("leakage: spec has no ID")
	}
	if s.Secret == 0 {
		return fmt.Errorf("leakage: %s: secret must be nonzero (line 0 collects training residue)", s.ID)
	}
	switch s.Template {
	case TemplateSpectre, TemplateSpectreCross, TemplateLLCSBContend:
		if err := s.params().Validate(); err != nil {
			return fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
	case TemplateSpectreBTB:
		if err := s.params().ValidateBTB(); err != nil {
			return fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
	case TemplateSpectreRSB:
		if err := s.params().ValidateRSB(); err != nil {
			return fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
	case TemplateSSB:
		if err := s.params().ValidateSSB(); err != nil {
			return fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
		if s.TrustAnnotations {
			return fmt.Errorf("leakage: %s: TrustAnnotations unsupported (ssb has no annotated loads)", s.ID)
		}
	case TemplateMeltdown:
		// Geometry is fixed; only the secret matters.
	default:
		return fmt.Errorf("leakage: %s: unknown template %d", s.ID, int(s.Template))
	}
	return nil
}

// Cores returns how many cores the spec's machine needs.
func (s AttackSpec) Cores() int {
	if s.Template == TemplateSpectreCross || s.Template == TemplateLLCSBContend {
		return 2
	}
	return 1
}

// Machine returns the machine configuration the spec runs on.
func (s AttackSpec) Machine() config.Machine {
	m := config.Default(s.Cores())
	m.TrustSafeAnnotations = s.TrustAnnotations
	return m
}

// Programs assembles the spec, one program per core: from the registry
// when Workload names an imported recording, from the template otherwise.
func (s AttackSpec) Programs() ([]*isa.Program, error) {
	if s.Workload != "" {
		w, err := workload.Lookup(s.Workload)
		if err != nil {
			return nil, fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
		progs, err := w.Programs(w.DefaultCores())
		if err != nil {
			return nil, fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
		if len(progs) != s.Cores() {
			return nil, fmt.Errorf("leakage: %s: workload %q provides %d core(s), template %s needs %d",
				s.ID, s.Workload, len(progs), s.Template, s.Cores())
		}
		return progs, nil
	}
	switch s.Template {
	case TemplateSpectre:
		p, err := workload.SpectreV1With(s.params())
		if err != nil {
			return nil, fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
		return []*isa.Program{p}, nil
	case TemplateSpectreCross:
		progs, err := workload.SpectreV1CrossThread(s.params())
		if err != nil {
			return nil, fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
		return progs, nil
	case TemplateMeltdown:
		return []*isa.Program{workload.Meltdown(s.Secret)}, nil
	case TemplateSpectreBTB:
		p, err := workload.SpectreV2With(s.params())
		if err != nil {
			return nil, fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
		return []*isa.Program{p}, nil
	case TemplateSpectreRSB:
		p, err := workload.SpectreRSBWith(s.params())
		if err != nil {
			return nil, fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
		return []*isa.Program{p}, nil
	case TemplateSSB:
		p, err := workload.SSBWith(s.params())
		if err != nil {
			return nil, fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
		return []*isa.Program{p}, nil
	case TemplateLLCSBContend:
		progs, err := workload.LLCSBContendWith(s.params())
		if err != nil {
			return nil, fmt.Errorf("leakage: %s: %w", s.ID, err)
		}
		return progs, nil
	}
	return nil, fmt.Errorf("leakage: %s: unknown template %d", s.ID, int(s.Template))
}

// ResultsBase returns where the attacker's per-probe-line latencies land
// in functional memory.
func (s AttackSpec) ResultsBase() uint64 {
	if s.Template == TemplateMeltdown {
		return workload.MeltdownResultsBase
	}
	return workload.SpectreResultsBase
}

// ResultLines returns how many probe-line latencies the attack records.
func (s AttackSpec) ResultLines() int {
	if s.Template == TemplateMeltdown {
		return 256
	}
	return s.ProbeLines
}

// Expect returns the verdict the defense-outcome matrix predicts for this
// spec under defense d. The matrix is empirical ground truth, established
// by running every variant class under every defense:
//
//   - Spectre (both placements, full flush): leaks only on Base. All four
//     defenses close it — fences serialize the window shut, InvisiSpec
//     keeps the squashed loads invisible.
//   - FlushProbe=false: probe line 0 stays hot with training residue in
//     every configuration, so the scan cannot distinguish leak from
//     blocked — Inconclusive everywhere (a distinguisher control).
//   - FlushBounds=false (with the probe flushed): the bounds load hits in
//     L1, the branch resolves before the secret arrives, and the window
//     closes — Blocked everywhere, Base included (a negative control).
//   - Annotate+TrustAnnotations: safe-annotated loads bypass the USL
//     machinery, so the leak re-opens on every invisible-load scheme
//     (IS-Sp, IS-Fu, SpecBox) and Base; the fence defenses and
//     BasicBlocker still close the window in the front end, which the
//     annotation does not touch. This is the §XI threat-model boundary,
//     reported as an expected leak.
//   - Meltdown: exceptions are a Futuristic squash source, so it leaks on
//     Base, Fe-Sp and IS-Sp; Fe-Fu/IS-Fu block it. SpecBox blocks it too
//     (fills stay quarantined until the ROB head, and the faulting load
//     never reaches the head un-squashed); BasicBlocker leaks it — the
//     faulting load and its dependent transmit load share a basic block,
//     so no block-boundary stall separates them.
//   - Spectre-BTB and Spectre-RSB follow the v1 rows exactly: the window
//     opener is an indirect jump / return instead of a conditional
//     branch, but all of those are branches to every defense (fences
//     serialize after them, IS-Sp's unresolved-branch test covers them,
//     BasicBlocker's block boundaries fall at them), so the full-flush
//     variants leak only on Base and the control/annotation axes behave
//     as in v1.
//   - SSB: the window is an older store's unresolved address — no branch
//     anywhere — so every branch-scoped defense misses it BY DESIGN:
//     leaks on Base, Fe-Sp, IS-Sp and BasicBlocker (documented
//     threat-model rows, the store-queue analogue of Meltdown's
//     exception rows; InvisiSpec's Spectre model only covers branch
//     speculation). Fe-Fu's per-load fences wait out the store, and
//     under IS-Fu/SpecBox the bypassing loads are unsafe (an older
//     unperformed store) so their fills stay invisible: Blocked.
//   - LLC-SB contention: the victim-side gadget is v1's behind the same
//     bounds check, so the rows match the cross-thread placement —
//     full-flush leaks only on Base; under every InvisiSpec scheme the
//     burst fills land in the victim's LLC-SB and stay invisible to the
//     observer core.
func (s AttackSpec) Expect(d config.Defense) Verdict {
	if s.Template == TemplateMeltdown {
		switch d {
		case config.Base, config.FenceSpectre, config.ISSpectre, config.BasicBlocker:
			return VerdictLeak
		}
		return VerdictBlocked
	}
	if s.Template == TemplateSSB {
		if !s.FlushProbe {
			return VerdictInconclusive
		}
		switch d {
		case config.Base, config.FenceSpectre, config.ISSpectre, config.BasicBlocker:
			return VerdictLeak
		}
		return VerdictBlocked
	}
	if !s.FlushProbe {
		return VerdictInconclusive
	}
	if !s.FlushBounds {
		return VerdictBlocked
	}
	if s.Annotate && s.TrustAnnotations {
		switch d {
		case config.Base, config.ISSpectre, config.ISFuture, config.SpecBox:
			return VerdictLeak
		}
		return VerdictBlocked
	}
	if d == config.Base {
		return VerdictLeak
	}
	return VerdictBlocked
}
