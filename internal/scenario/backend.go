package scenario

import (
	"context"
	"fmt"

	"github.com/gfcsim/gfc/internal/netsim"
)

// Runner is a built, ready-to-run scenario under either engine. *Sim (the
// packet path) satisfies it directly; FluidBackend.Build returns the fluid
// implementation. RunBounded composes the spec's Limits with the caller's
// extra budget and honours ctx cancellation.
type Runner interface {
	RunBounded(ctx context.Context, extra netsim.Budget) (*Result, error)
}

// BuildBackend compiles spec for the engine its Sim.Backend field selects:
// "" or "packet" is Build itself, "fluid" the network-of-queues solver.
func BuildBackend(spec Spec, ov *Overrides) (Runner, error) {
	switch spec.Sim.Backend {
	case "", "packet":
		return Build(spec, ov)
	case "fluid":
		return FluidBackend{}.Build(spec, ov)
	default:
		return nil, fmt.Errorf("scenario: unknown backend %q (want packet or fluid)", spec.Sim.Backend)
	}
}
