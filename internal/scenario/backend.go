package scenario

import (
	"context"
	"fmt"

	"github.com/gfcsim/gfc/internal/analytic"
	"github.com/gfcsim/gfc/internal/netsim"
)

// Runner is a built, ready-to-run scenario under either engine. *Sim (the
// packet path) satisfies it directly; FluidBackend.Build returns the fluid
// implementation. RunBounded composes the spec's Limits with the caller's
// extra budget and honours ctx cancellation; Predict is the compiled spec's
// analytic prediction, available before (or after) the run — auto-mode sweep
// triage uses it to decide escalation without running anything.
type Runner interface {
	RunBounded(ctx context.Context, extra netsim.Budget) (*Result, error)
	Predict() (*analytic.Prediction, error)
}

// BuildBackend compiles spec for the engine its Sim.Backend field selects:
// "" or "packet" is Build itself, "fluid" the network-of-queues solver, and
// "auto" resolves to fluid when the spec is fluid-representable and to
// packet otherwise — the per-spec flavour of the sweeps' adaptive-fidelity
// triage (which additionally escalates on analytic-boundary proximity).
func BuildBackend(spec Spec, ov *Overrides) (Runner, error) {
	var fl FluidBackend
	switch spec.Sim.Backend {
	case "", "packet":
		return Build(spec, ov)
	case "fluid":
		return fl.Build(spec, ov)
	case "auto":
		if fl.Supports(&spec) == nil {
			return fl.Build(spec, ov)
		}
		return Build(spec, ov)
	default:
		return nil, fmt.Errorf("scenario: unknown backend %q (want packet, fluid or auto)", spec.Sim.Backend)
	}
}
