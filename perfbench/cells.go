package main

// Cell bodies. The traced bodies break the program's cell entry points
// (harness.MeasureWorkload via campaign.RunJobSpec, and
// leakage.RunTrialSpec) into the public calls they make, with a span
// around each. The trace run proves every traced cell byte-identical to the
// untraced entry point, so the spans time the same program the untraced
// run measures.

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"invisispec/internal/campaign"
	"invisispec/internal/config"
	"invisispec/internal/engine"
	"invisispec/internal/harness"
	"invisispec/internal/leakage"
	"invisispec/internal/sim"
	"invisispec/internal/workload"
)

// budgetPerInstruction matches harness.Measure's cycle budget per
// requested instruction.
const budgetPerInstruction = 600

// counters are the deterministic counts sim.Machine exposes after a cell,
// summed over cells. A host-only change must leave every one unchanged.
type counters struct {
	cells      int
	retired    uint64 // all cores, warmup included
	fetched    uint64
	squashes   uint64
	valStall   uint64 // core cycles retirement stalled on validation
	coreCycles uint64 // summed over cores
	cycles     uint64 // machine cycles
	skipped    uint64 // cycles the fast kernel fast-forwarded
	events     uint64 // memsys events scheduled
	packets    uint64 // NoC packets injected
	l1dHit     uint64
	l1dMiss    uint64
	llcHit     uint64
	llcMiss    uint64
}

func (c *counters) addMachine(m *sim.Machine) {
	s := m.Stats.Sum()
	c.cells++
	c.retired += s.Retired
	c.fetched += s.Fetched
	c.squashes += s.TotalSquashes()
	c.valStall += s.ValidationStall
	c.coreCycles += s.Cycles
	c.cycles += m.Cycle()
	_, skipped := m.FastForwardStats()
	c.skipped += skipped
	sched, _, _ := m.Hier.EventAccounting()
	c.events += sched
	inj, _, _ := m.Hier.NoCAccounting()
	c.packets += inj
	c.l1dHit += s.L1DHits
	c.l1dMiss += s.L1DMisses
	c.llcHit += m.Stats.LLCHits
	c.llcMiss += m.Stats.LLCMisses
}

func (c *counters) merge(o counters) {
	c.cells += o.cells
	c.retired += o.retired
	c.fetched += o.fetched
	c.squashes += o.squashes
	c.valStall += o.valStall
	c.coreCycles += o.coreCycles
	c.cycles += o.cycles
	c.skipped += o.skipped
	c.events += o.events
	c.packets += o.packets
	c.l1dHit += o.l1dHit
	c.l1dMiss += o.l1dMiss
	c.llcHit += o.llcHit
	c.llcMiss += o.llcMiss
}

// tracedMeasure is harness.MeasureWorkload as campaign.RunJobSpec calls it,
// one public call per span.
func tracedMeasure(ctx context.Context, tr *tracer, cell string, parent int, s campaign.JobSpec) (harness.Result, *sim.Machine, error) {
	kernel, err := engine.ParseKernel(s.Kernel)
	if err != nil {
		return harness.Result{}, nil, err
	}
	sp := tr.begin("workload.programs", cell, parent)
	w, err := workload.Lookup(s.Workload)
	if err != nil {
		tr.end(sp)
		return harness.Result{}, nil, err
	}
	cores := w.DefaultCores()
	progs, err := w.Programs(cores)
	tr.end(sp)
	if err != nil {
		return harness.Result{}, nil, err
	}
	run := config.Run{Machine: config.Default(cores), Defense: s.Defense, Consistency: s.Consistency}
	sp = tr.begin("sim.new", cell, parent)
	m, err := sim.New(run, progs)
	tr.end(sp)
	if err != nil {
		return harness.Result{}, nil, err
	}
	m.SetKernel(kernel)
	if s.FaultSeed != 0 {
		m.SeedFaults(s.FaultSeed)
	}
	budget := (s.Warmup + s.Measure) * budgetPerInstruction
	sp = tr.begin("sim.run", cell, parent)
	if err := m.RunInstructionsCtx(ctx, s.Warmup, budget); err != nil {
		tr.end(sp)
		return harness.Result{}, nil, fmt.Errorf("%s warmup: %w", cell, err)
	}
	startCycles, startCore := m.Cycle(), m.Stats.Sum()
	startTraffic, startDRAM := m.Stats.TrafficBytes, m.Stats.DRAMReads
	err = m.RunInstructionsCtx(ctx, s.Warmup+s.Measure, budget)
	tr.end(sp)
	if err != nil {
		return harness.Result{}, nil, fmt.Errorf("%s measure: %w", cell, err)
	}
	r := harness.Result{
		Run:      run,
		Workload: s.Workload,
		Cycles:   m.Cycle() - startCycles,
		Core:     m.Stats.Sum().Sub(startCore),
	}
	r.Instructions = r.Core.Retired
	for i := range r.Traffic {
		r.Traffic[i] = m.Stats.TrafficBytes[i] - startTraffic[i]
	}
	r.DRAMReads = m.Stats.DRAMReads - startDRAM
	if ve := r.Core.LLCSBHits + r.Core.LLCSBMisses; ve > 0 {
		r.LLCSBRate = float64(r.Core.LLCSBHits) / float64(ve)
	}
	return r, m, nil
}

// trialSeed matches the leakage scanner's per-trial fault seed.
func trialSeed(id string, d config.Defense, trial int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", id, d, trial)
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}

// tracedTrial is leakage.RunTrialSpec, one public call per span.
func tracedTrial(ctx context.Context, tr *tracer, cell string, parent int, ts leakage.TrialSpec) ([]uint64, *sim.Machine, error) {
	sp := tr.begin("workload.programs", cell, parent)
	progs, err := ts.Attack.Programs()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	run := config.Run{Machine: ts.Attack.Machine(), Defense: ts.Defense, Consistency: ts.Consistency}
	sp = tr.begin("sim.new", cell, parent)
	m, err := sim.New(run, progs)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if ts.Trial > 0 {
		sp = tr.begin("sim.seed_faults", cell, parent)
		m.SeedFaults(trialSeed(ts.Attack.ID, ts.Defense, ts.Trial))
		tr.end(sp)
	}
	sp = tr.begin("sim.run", cell, parent)
	err = m.RunToCompletionCtx(ctx, ts.MaxCycles)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cell, err)
	}
	return workload.ScanLatencies(m.Mem, ts.Attack.ResultsBase(), ts.Attack.ResultLines()), m, nil
}

// marshal renders a cell value the way campaign stores it.
func marshal(v any) (json.RawMessage, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("marshaling cell value: %w", err)
	}
	return b, nil
}
