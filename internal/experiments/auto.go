package experiments

import (
	"context"
	"errors"
	"fmt"

	"github.com/gfcsim/gfc/internal/analytic"
	"github.com/gfcsim/gfc/internal/fluid"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// This file is the adaptive-fidelity side of the Table 1 sweep: repeats are
// triaged with the fluid network solver (three-plus orders of magnitude
// fewer state updates than packet simulation) and re-run at packet level
// only when the cell sits near an analytic boundary, where the fluid
// verdict cannot be trusted on its own.

// fluidSweepBackend compiles sweep repeats for the fluid solver. The
// generator stand-in is enabled: sweep workloads are random enterprise
// traffic, and the stand-in's persistent saturating flows upper-bound the
// congestion the generator can create — the right polarity for triage,
// which must never under-estimate occupancy.
var fluidSweepBackend = scenario.FluidBackend{RenderGenerator: true}

// Triage reasons, pinned by the golden escalation test: each names the
// analytic boundary that forces a packet re-run in auto mode and, prefixed
// with "cannot degrade: ", refuses the degraded-fidelity fallback.
const (
	escalateUnsupported = "fluid-unsupported scheme"
	escalateCyclic      = "deadlock-capable scheme on cyclic CBD"
	escalateFailed      = "fluid run failed"
	escalateDeadlock    = "fluid deadlock contradicts analytic deadlock-freedom"
	escalateLoss        = "fluid loss contradicts analytic losslessness"
	escalateBoundary    = "occupancy within tolerance band of analytic envelope"
)

// cellBand is the differential tolerance band of one sweep cell: fluid.Band
// at the topology's fastest live link and the sweep MTU (the sim preset's
// 1500 B default).
func cellBand(topo *topology.Topology) units.Size {
	var maxCap units.Rate
	for i := 0; i < topo.NumLinks(); i++ {
		l := topo.Link(topology.LinkID(i))
		if !l.Failed && l.Capacity > maxCap {
			maxCap = l.Capacity
		}
	}
	return fluid.Band(maxCap, 1500*units.Byte)
}

// buildFluidRepeat compiles one repeat for the fluid solver.
func buildFluidRepeat(topo *topology.Topology, tab *routing.Table, fc FC, cfg SweepConfig, repeatSeed int64) (scenario.Runner, error) {
	spec := sweepSpec(fc, cfg, repeatSeed)
	// Triage integrates at 2 µs: the sweep dynamics (τ ≥ 12 µs) are far
	// slower, and any cell the coarse step puts near the envelope is
	// re-run at packet fidelity anyway.
	spec.Sim.FluidStepNs = 2 * units.Microsecond
	return fluidSweepBackend.Build(spec, repeatOverrides(topo, tab))
}

// RunScenarioFluid executes one workload repetition on the fluid backend —
// the pure-fluid counterpart of RunScenario. The scheme must be
// fluid-representable (RunSweep pre-checks this for fluid-mode sweeps).
// Slowdown samples stay empty (the stand-in's flows are unbounded, so there
// are no completion times) — documented in EXPERIMENTS.md alongside the
// aggregates that therefore only cover packet-produced repeats.
func RunScenarioFluid(ctx context.Context, topo *topology.Topology, tab *routing.Table, fc FC, cfg SweepConfig, repeatSeed int64) (*ScenarioResult, error) {
	r, err := buildFluidRepeat(topo, tab, fc, cfg, repeatSeed)
	if err != nil {
		return nil, err
	}
	res, err := runRepeat(ctx, r, topo, cfg)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// triageRepeat runs one repeat on the fluid solver and decides whether its
// verdict can stand on its own. A non-empty reason names the analytic
// boundary the cell sits at — the fluid result there cannot be trusted
// without packet fidelity: the scheme has no fluid rendition, the analytic
// model says it can deadlock on this (cyclic) CBD, the fluid run
// contradicts an analytic guarantee, or the occupancy is within the
// differential tolerance band of the envelope. fres is the fluid result when
// the run got far enough to produce one; err reports a fluid run that failed
// outright. Auto mode escalates on a reason, degraded mode refuses on it.
func triageRepeat(ctx context.Context, topo *topology.Topology, tab *routing.Table, fc FC, cfg SweepConfig, repeatSeed int64) (fres *ScenarioResult, reason string, err error) {
	var pred *analytic.Prediction
	r, err := buildFluidRepeat(topo, tab, fc, cfg, repeatSeed)
	if err == nil {
		pred, err = r.Predict()
	}
	if err != nil {
		return nil, escalateUnsupported + ": " + err.Error(), nil
	}
	if !pred.DeadlockFree {
		// Deadlock formation is a packet-granular phenomenon (HOL
		// blocking, pause cascades); the fluid solver's proportional
		// sharing cannot decide it.
		return nil, escalateCyclic, nil
	}
	fres, err = runRepeat(ctx, r, topo, cfg)
	if err != nil {
		return fres, "", err
	}
	return fres, verdictBoundary(pred, fres, cellBand(topo)), nil
}

// verdictBoundary names the analytic boundary a completed fluid repeat sits
// at, or "" when its verdict stands: pred is deadlock-free here, so a fluid
// deadlock or (on a lossless prediction) a fluid drop contradicts the model,
// and an occupancy within band of the envelope is too close to call.
func verdictBoundary(pred *analytic.Prediction, fres *ScenarioResult, band units.Size) string {
	switch {
	case fres.Deadlocked:
		return escalateDeadlock
	case fres.Drops > 0 && pred.Lossless:
		return escalateLoss
	case pred.MaxOccupancy > 0 && pred.MaxOccupancy-fres.HighWater <= band:
		return escalateBoundary
	}
	return ""
}

// runAutoRepeat is the adaptive-fidelity repeat: fluid triage, escalated to
// a packet re-run at any analytic boundary. On every escalation where the
// fluid pass produced a result, the differential tolerance band is enforced
// as a runtime invariant — the packet occupancy may not exceed the fluid
// (saturating, hence upper-bounding) occupancy by more than the band; a
// violation means the two engines disagree about the same network and
// quarantines the cell rather than aggregating either answer.
func runAutoRepeat(ctx context.Context, topo *topology.Topology, tab *routing.Table, fc FC, cfg SweepConfig, repeatSeed int64) (*ScenarioResult, error) {
	fres, reason, ferr := triageRepeat(ctx, topo, tab, fc, cfg, repeatSeed)
	switch {
	case errors.Is(ferr, context.Canceled) || errors.Is(ferr, context.DeadlineExceeded):
		return nil, ferr
	case ferr != nil:
		reason = escalateFailed + ": " + ferr.Error()
	case reason == "":
		return fres, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pres, err := RunScenario(ctx, topo, tab, fc, cfg, repeatSeed)
	if err != nil {
		return nil, err
	}
	pres.Escalation = reason
	if fres != nil {
		band := cellBand(topo)
		if pres.HighWater > fres.HighWater+band {
			return nil, fmt.Errorf(
				"backend divergence on escalation %q: packet high-water %v exceeds fluid %v by more than the tolerance band %v",
				reason, pres.HighWater, fres.HighWater, band)
		}
		if pres.Deadlocked && !fres.Deadlocked && reason == escalateBoundary {
			return nil, fmt.Errorf(
				"backend divergence on escalation %q: packet deadlocked at %v but fluid saw progress",
				reason, pres.DeadlockAt)
		}
	}
	return pres, nil
}
