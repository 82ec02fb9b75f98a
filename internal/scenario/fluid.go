package scenario

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/fluid"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// FluidBackend compiles a Spec onto the network-of-queues fluid solver
// (fluid.RunNet): per-channel rate integration instead of per-packet events.
// It binds the same metrics.Registry layout netsim does, so invariant
// checking, CheckNetwork and report writers work unchanged. What it cannot
// represent it rejects from Supports with the reason named, and what it
// cannot decide — a deadlock-prone scheme on a cyclic CBD — from Build.
type FluidBackend struct {
	// RenderGenerator substitutes a deterministic saturating stand-in for
	// generator workloads: FlowsPerHost unbounded flows per host toward
	// seeded inter-rack destinations. The stand-in upper-bounds the
	// generator's congestion (persistent sources never finish), so
	// occupancy is checked against the worst case — but it is not the
	// generator's byte sequence, so only fluid sweeps (experiments.RunSweep)
	// turn it on.
	RenderGenerator bool
}

// Supports reports nil when spec is fluid-representable, else an error
// naming the packet-granular feature. The conformance suite asserts these
// reasons, so keep them stable.
func (b FluidBackend) Supports(spec *Spec) error {
	if spec.Faults != nil {
		return fmt.Errorf("scenario: fluid backend: fault injection is event-granular (feedback loss, flaps)")
	}
	if spec.Workload.Generator != nil && !b.RenderGenerator {
		return fmt.Errorf("scenario: fluid backend: generator workloads (random flow churn) have no fluid rendition")
	}
	switch spec.Scheme.FC {
	case PFC, GFCBuf, GFCTime, GFCConceptual:
	case CBFC:
		return fmt.Errorf("scenario: fluid backend: CBFC credit accounting is message-granular")
	case BFC:
		return fmt.Errorf("scenario: fluid backend: BFC per-flow queues are packet-granular")
	default:
		return fmt.Errorf("scenario: fluid backend: no fluid mapping for scheme %q", spec.Scheme.FC)
	}
	switch spec.Sim.Scheduling {
	case "", "input-queued":
	default:
		return fmt.Errorf("scenario: fluid backend: scheduling %q is packet-granular (fluid models ingress queues only)", spec.Sim.Scheduling)
	}
	if spec.Run.Detector == "dcfit" || spec.Run.Detector == "both" {
		return fmt.Errorf("scenario: fluid backend: DCFIT in-data-plane detection is packet-granular")
	}
	return nil
}

// Build compiles spec once into a single-use Runner from the same compile step
// the packet Build uses, so the two backends turn a Spec into directly
// comparable networks: same topology, routes, configuration, thresholds and
// registry binding.
func (b FluidBackend) Build(spec Spec, ov *Overrides) (Runner, error) {
	// Validate before Supports, so an invalid spec gets Parse's error
	// whatever else it asks of the fluid model; compile validates again.
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := b.Supports(&spec); err != nil {
		return nil, err
	}
	if ov == nil {
		ov = &Overrides{}
	}
	if ov.Trace != nil {
		return nil, fmt.Errorf("scenario: fluid backend: the Trace override is packet-only")
	}
	c, err := compile(spec, ov)
	if err != nil {
		return nil, err
	}
	if c.cfg.BufferSize <= 0 {
		return nil, fmt.Errorf("scenario: fluid backend: BufferSize must be positive")
	}
	bases := c.topo.ChannelBases()
	channels, laws, err := c.fluidChannels(bases)
	if err != nil {
		return nil, err
	}
	if c.reg != nil {
		netsim.BindRegistry(c.reg, c.topo, c.cfg, func(node topology.NodeID, port int) (units.Size, *core.StageTable) {
			law := &laws[bases[node]+port]
			return law.bm, law.table
		})
	}

	var netFlows []fluid.NetFlow
	if spec.Workload.Generator != nil {
		if netFlows, err = c.renderGeneratorFlows(); err != nil {
			return nil, err
		}
		for _, f := range netFlows {
			c.rendered = append(c.rendered, f.Path)
		}
	}
	for _, rf := range c.flows {
		netFlows = append(netFlows, fluid.NetFlow{Path: rf.flow.Path, Size: rf.flow.Size, Start: rf.start})
	}
	if len(netFlows) == 0 {
		return nil, fmt.Errorf("scenario: fluid backend: workload resolved to no flows")
	}
	if err := c.fluidDecides(); err != nil {
		return nil, err
	}
	return &fluidSim{compiled: c, netcfg: fluid.NetConfig{
		Channels: channels,
		Flows:    netFlows,
		Horizon:  spec.Run.DurationNs,
		Step:     spec.Sim.FluidStepNs,
		MTU:      c.cfg.MTU,
		Metrics:  c.reg,
	}}, nil
}

// fluidDecides refuses a run whose deadlock verdict is not the solver's to
// give: a scheme the analytic model does not call deadlock-free, on routes
// (declared and rendered) that close a cyclic buffer dependency. Deadlock
// formation there is packet-granular (head-of-line blocking, pause cascades),
// and the solver's proportional sharing cannot decide it. The prediction is
// kept for the end-of-run verdict.
func (c *compiled) fluidDecides() error {
	if !c.cbdVerdict() {
		return nil
	}
	var err error
	if c.pred, err = c.predict(); err != nil {
		return err
	}
	if !c.pred.DeadlockFree {
		return fmt.Errorf("scenario: fluid backend: %s can deadlock on a cyclic CBD, and deadlock formation is packet-granular (the fluid solver's proportional sharing cannot decide it)", c.spec.Scheme.FC)
	}
	return nil
}

// fluidLaw is one channel's resolved flow control as the fluid compiler
// renders it: the queue-to-rate law and feedback period for the solver, and
// what netsim reads off its bank (Bound) for the registry — the mapping
// ceiling B_m (0: the scheme has none) and the stage table (nil: not staged).
type fluidLaw struct {
	mapping fluid.Mapping
	period  units.Time
	bm      units.Size
	table   *core.StageTable
}

// fluidChannels lists every live ingress channel with its queue-to-rate law,
// built from the thresholds the flowcontrol factories would install on the
// same channel (same ChannelParams, same FCParams, same Resolve), so the fluid
// dynamics obey the parameters the packet network runs with. Host ingress
// consumes on arrival and stays uncontrolled; laws carries every live
// channel's resolution for the registry binding, indexed by the channel
// numbering bases (c.topo.ChannelBases()).
func (c *compiled) fluidChannels(bases []int) ([]fluid.NetChannel, []fluidLaw, error) {
	var out []fluid.NetChannel
	laws := make([]fluidLaw, bases[len(bases)-1])
	for n := range topology.NodeID(c.topo.NumNodes()) {
		node := c.topo.Node(n)
		for _, at := range c.topo.Ports(n) {
			if at.Link.Failed {
				continue
			}
			p := c.cfg.ChannelParams(at.Link, node.Kind)
			law, err := c.fluidLaw(p)
			if err != nil {
				return nil, nil, fmt.Errorf("scenario: fluid backend: %s ingress from %s: %w",
					node.Name, c.topo.Node(at.Peer).Name, err)
			}
			laws[bases[n]+at.Port] = law
			ch := fluid.NetChannel{
				Node: n, Port: at.Port,
				Capacity: p.Capacity,
				Buffer:   p.Buffer,
				Host:     node.Kind == topology.Host,
			}
			if !ch.Host {
				ch.Mapping, ch.Period = law.mapping, law.period
				// The dynamics lag is the physical feedback latency the
				// packet network actually exhibits — equation (6) plus a
				// few packets of serialisation the fluid model elides
				// (calibrated by the differential harness).
				ch.Tau = core.Tau(p.Capacity, p.MTU, at.Link.Delay, c.cfg.ProcDelay) +
					4*units.TransmissionTime(p.MTU, p.Capacity)
			}
			out = append(out, ch)
		}
	}
	return out, laws, nil
}

// fluidLaw resolves the scheme's thresholds for one channel — with the
// flowcontrol Resolve function the scheme's factory itself calls, so an
// invalid threshold is refused with the factory's message — and renders them
// as the channel's law.
func (c *compiled) fluidLaw(p flowcontrol.Params) (fluidLaw, error) {
	continuous := func(b0, bm units.Size) fluid.Mapping {
		m := core.ContinuousMapping{C: p.Capacity, B0: b0, Bm: bm}
		return fluid.Floored{M: fluid.Continuous{M: m}}
	}
	switch fc := c.spec.Scheme.FC; fc {
	case PFC:
		th, err := c.fp.pfc().Resolve(p)
		return fluidLaw{mapping: &fluid.OnOff{C: p.Capacity, XOFF: th.XOFF, XON: th.XON}}, err
	case GFCBuf:
		th, err := c.fp.gfcBuffer().Resolve(p)
		if err != nil {
			return fluidLaw{}, err
		}
		st, err := core.NewStageTableRatio(p.Capacity, th.Bm, th.B1, th.Ratio)
		return fluidLaw{mapping: fluid.Staged{T: st}, bm: th.Bm, table: st}, err
	case GFCTime:
		th, err := c.fp.gfcTime().Resolve(p)
		return fluidLaw{mapping: continuous(th.B0, th.Bm), period: th.Period, bm: th.Bm}, err
	case GFCConceptual:
		th, err := c.fp.gfcConceptual().Resolve(p)
		return fluidLaw{mapping: continuous(th.B0, th.Bm), bm: th.Bm}, err
	default:
		return fluidLaw{}, fmt.Errorf("fluid: no mapping for scheme %q", fc)
	}
}

// renderGeneratorFlows builds the saturating generator stand-in: for every
// host, FlowsPerHost unbounded flows toward seeded uniformly-random
// inter-rack reachable destinations (workload.PickDst, the generator's own
// destination rule). Deterministic per (spec, seed); hosts with no reachable
// inter-rack peer stay idle, exactly like workload.Generator.
func (c *compiled) renderGeneratorFlows() ([]fluid.NetFlow, error) {
	rng := rand.New(rand.NewSource(c.generatorSeed()))
	racks := workload.EdgeRacks(c.topo)
	hosts := c.topo.Hosts()
	k := c.spec.Workload.Generator.FlowsPerHost
	if k < 1 {
		k = 1
	}
	var out []fluid.NetFlow
	id := 0
	for _, h := range hosts {
		for i := 0; i < k; i++ {
			dst, ok := workload.PickDst(rng, c.table, racks, hosts, h)
			if !ok {
				break // no reachable inter-rack destination: host idle
			}
			id++
			path, err := c.table.Path(h, dst, routing.GeneratedFlowKey(id, h, dst))
			if err != nil {
				return nil, fmt.Errorf("scenario: fluid backend: routing stand-in flow %d: %w", id, err)
			}
			out = append(out, fluid.NetFlow{Path: path})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario: fluid backend: generator stand-in produced no flows (no inter-rack reachability)")
	}
	return out, nil
}

// fluidSim is the fluid backend's Runner: the shared compilation plus the
// solver configuration built from it.
type fluidSim struct {
	*compiled
	netcfg fluid.NetConfig
	ran    bool
}

// RunBounded implements Runner. The horizon is the spec's duration. Of the
// budget (the spec's Limits overlaid with extra) only MaxWall applies — event
// budgets and the event-stall watchdog have no meaning for a rate integrator,
// whose step count is fixed by the horizon — and a trip is reported like the
// packet engine's: the partial Result with Stopped set, alongside the
// *netsim.RunError (StopWallBudget, or StopCancelled wrapping ctx's error).
func (s *fluidSim) RunBounded(ctx context.Context, extra netsim.Budget) (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("scenario: fluid runner is single-use")
	}
	s.ran = true
	s.netcfg.Ctx = ctx
	if wall := s.spec.Limits.Budget().Overlay(extra).MaxWall; wall > 0 {
		var cancel context.CancelFunc
		s.netcfg.Ctx, cancel = context.WithTimeout(ctx, wall)
		defer cancel()
	}
	nres, err := fluid.RunNet(s.netcfg)
	if nres == nil {
		return nil, err
	}
	res := &Result{
		Backend:    "fluid",
		End:        nres.End,
		Deadlocked: nres.Deadlocked,
		DeadlockAt: nres.DeadlockAt,
		Drops:      nres.Drops,
		Delivered:  nres.Delivered,
		HighWater:  nres.HighWater,
	}
	if err != nil {
		// RunNet only stops mid-run on its context: the caller's, or the
		// wall budget's deadline layered on it.
		re := &netsim.RunError{
			Reason: netsim.StopWallBudget,
			Snapshot: &netsim.Snapshot{
				At: nres.End, Events: uint64(nres.Steps),
				Delivered: nres.Delivered, Drops: nres.Drops,
			},
		}
		if cause := ctx.Err(); cause != nil {
			re.Reason, re.Cause = netsim.StopCancelled, cause
		}
		res.Stopped, err = re, re
	}
	return s.finish(res), err
}
