package scenario

import (
	"context"

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
// "fluid" is the network-of-queues solver, anything else Build itself (whose
// validation refuses a backend that is not "" or "packet").
func BuildBackend(spec Spec, ov *Overrides) (Runner, error) {
	if spec.Sim.Backend == "fluid" {
		return FluidBackend{}.Build(spec, ov)
	}
	return Build(spec, ov)
}
