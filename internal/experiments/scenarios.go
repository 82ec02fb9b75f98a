// Package experiments contains one driver per table and figure of the
// paper's evaluation (§6), plus the ablations DESIGN.md calls out. Each
// driver builds its scenario, runs the packet-level simulation and returns
// the rows/series the paper reports.
package experiments

import (
	"context"
	"fmt"

	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/units"
)

// FC names a flow-control scheme under evaluation; schemes and the paper's
// parameter presets live in internal/scenario, the declarative layer every
// driver compiles through.
type FC = scenario.FC

// The four schemes of the paper's comparison, plus the conceptual design of
// §4.1 (continuous feedback; used by the Figure 5 illustration only) and BFC
// (the fault-matrix challenger).
const (
	PFC           = scenario.PFC
	CBFC          = scenario.CBFC
	GFCBuf        = scenario.GFCBuf
	GFCTime       = scenario.GFCTime
	GFCConceptual = scenario.GFCConceptual
	BFC           = scenario.BFC
)

// AllFCs lists the four schemes in the paper's presentation order.
var AllFCs = scenario.AllFCs

// RunOptions is what the caller of any single-run driver decides about the
// run itself, as opposed to what the figure declares: every driver overlays
// it on its scenario and ends in Sim.RunBounded, so budgets, cancellation and
// -metrics-out reach every single-run figure the same way.
type RunOptions struct {
	// Ctx is polled and Budget enforced by the run governor; a trip
	// surfaces as a *netsim.RunError. A nil Ctx means context.Background(),
	// the zero Budget imposes no bounds.
	Ctx    context.Context
	Budget netsim.Budget
	// Duration overrides the figure's own horizon when positive.
	Duration units.Time
	// Metrics, when non-nil, is attached to the simulation (fresh, unbound)
	// and collects per-channel counters, occupancy series and invariant
	// verdicts alongside the figure's own traces.
	Metrics *metrics.Registry
}

func (o RunOptions) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// build overlays o on the figure's declaration — the horizon override and
// the analytic self-check every driver runs under — and builds it with the
// driver's hooks.
func (o RunOptions) build(spec scenario.Spec, ov scenario.Overrides) (*scenario.Sim, error) {
	if o.Duration > 0 {
		spec.Run.DurationNs = o.Duration
	}
	spec.Run.Analytic = true
	ov.Metrics = o.Metrics
	return scenario.Build(spec, &ov)
}

// run executes a built figure under the governor. A tripped governor surfaces
// as the *netsim.RunError, a violated network-wide analytic bound as the
// *metrics.InvariantError, each in place of the result.
func (o RunOptions) run(sim *scenario.Sim) (*scenario.Result, error) {
	res, err := sim.RunBounded(o.ctx(), o.Budget)
	if err != nil {
		return nil, err
	}
	if err := res.Analytic.Err; err != nil {
		return nil, fmt.Errorf("%s: %w", res.Name, err)
	}
	return res, nil
}
