package scenario

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/gfcsim/gfc/internal/analytic"
	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/fluid"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// FluidBackend compiles a Spec onto the network-of-queues fluid solver
// (fluid.RunNet): per-channel rate integration instead of per-packet events.
// It binds the same metrics.Registry layout netsim does, so invariant
// checking, CheckNetwork and report writers work unchanged; what it cannot
// represent it rejects from Supports with the reason named.
type FluidBackend struct {
	// RenderGenerator substitutes a deterministic saturating stand-in for
	// generator workloads: FlowsPerHost unbounded flows per host toward
	// seeded inter-rack destinations. The stand-in upper-bounds the
	// generator's congestion (persistent sources never pause to think),
	// which is what sweep triage wants — occupancy envelopes checked
	// against the worst case — but it is not the generator's byte
	// sequence, so it stays off outside experiments.RunSweep auto mode.
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
	if spec.Sim.Priorities > 1 {
		return fmt.Errorf("scenario: fluid backend: multiple priority classes are packet-granular")
	}
	if spec.Sim.FeedbackJitterNs > 0 {
		return fmt.Errorf("scenario: fluid backend: feedback jitter is event-granular")
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

// Build compiles spec once into a single-use Runner. The construction order
// mirrors the packet Build — topology, routing, workload validation, config,
// registry — so the two backends compile a Spec into directly comparable
// networks.
func (b FluidBackend) Build(spec Spec, ov *Overrides) (Runner, error) {
	if err := b.Supports(&spec); err != nil {
		return nil, err
	}
	if ov == nil {
		ov = &Overrides{}
	}
	if ov.Trace != nil || ov.OnFlow != nil || ov.FaultPlan != nil {
		return nil, fmt.Errorf("scenario: fluid backend: Trace/OnFlow/FaultPlan overrides are packet-only")
	}

	topo := ov.Topo
	if topo == nil {
		if err := spec.Topology.validate(); err != nil {
			return nil, err
		}
		var err error
		if topo, err = buildTopology(spec.Topology); err != nil {
			return nil, err
		}
	}
	tab := ov.Table
	if tab == nil {
		if err := spec.Routing.validate(); err != nil {
			return nil, err
		}
		var err error
		if tab, err = buildRouting(spec, topo); err != nil {
			return nil, err
		}
	}
	if err := spec.Workload.validate(); err != nil {
		return nil, err
	}
	cfg, fp, err := spec.simConfig()
	if err != nil {
		return nil, err
	}
	// The defaults netsim.New would fill; the fluid model needs the same
	// values for threshold derivation.
	if cfg.MTU == 0 {
		cfg.MTU = 1500 * units.Byte
	}
	if cfg.ProcDelay == 0 {
		cfg.ProcDelay = 3 * units.Microsecond
	}
	if cfg.Priorities == 0 {
		cfg.Priorities = 1
	}
	if cfg.BufferSize <= 0 {
		return nil, fmt.Errorf("scenario: fluid backend: BufferSize must be positive")
	}

	reg := ov.Metrics
	if spec.Run.Analytic && reg == nil {
		reg = metrics.New(metrics.Options{})
	}
	if reg != nil {
		bindRegistry(reg, topo, cfg)
	}

	channels, err := fluidChannels(spec.Scheme.FC, topo, cfg, fp)
	if err != nil {
		return nil, err
	}

	s := &fluidSim{
		spec: spec, topo: topo, tab: tab, reg: reg, cfg: cfg, fp: fp,
		cbdCyclic: ov.CBDCyclic,
	}
	var netFlows []fluid.NetFlow
	if spec.Workload.Generator != nil {
		netFlows, err = renderGeneratorFlows(spec, topo, tab)
		if err != nil {
			return nil, err
		}
		s.genUnion = true
	} else {
		resolved, err := resolveFlows(spec, topo, tab)
		if err != nil {
			return nil, err
		}
		for _, rf := range resolved {
			netFlows = append(netFlows, fluid.NetFlow{
				Path:  rf.flow.Path,
				Size:  rf.flow.Size,
				Start: rf.start,
			})
		}
	}
	if len(netFlows) == 0 {
		return nil, fmt.Errorf("scenario: fluid backend: workload resolved to no flows")
	}
	for _, f := range netFlows {
		s.paths = append(s.paths, f.Path)
	}
	s.netcfg = fluid.NetConfig{
		Channels: channels,
		Flows:    netFlows,
		Horizon:  spec.Run.DurationNs,
		Step:     spec.Sim.FluidStepNs,
		MTU:      cfg.MTU,
		Metrics:  reg,
	}
	return s, nil
}

// bindRegistry gives reg the exact channel layout netsim.New would: every
// node, every port (failed links included), in (node, port, priority) order,
// with netsim's buffer values. Anything consuming ChannelIndex or the
// export/report paths then behaves identically across backends.
func bindRegistry(reg *metrics.Registry, topo *topology.Topology, cfg netsim.Config) {
	infos := make([]metrics.NodeInfo, topo.NumNodes())
	for n := 0; n < topo.NumNodes(); n++ {
		id := topology.NodeID(n)
		node := topo.Node(id)
		info := metrics.NodeInfo{
			ID: id, Name: node.Name,
			Host: node.Kind == topology.Host,
		}
		buf := cfg.BufferSize
		if info.Host {
			buf = netsim.HostIngressBuffer
		}
		for _, at := range topo.Ports(id) {
			info.Ports = append(info.Ports, metrics.PortInfo{
				Peer: at.Peer, PeerName: topo.Node(at.Peer).Name,
				Buffer: buf,
			})
		}
		infos[n] = info
	}
	reg.Bind(infos, cfg.Priorities)
}

// fluidChannels lists every live ingress channel with its queue-to-rate law,
// mirroring the flowcontrol factory derivations exactly (same thresholds
// from the same FCParams and per-link τ), so the fluid dynamics obey the
// parameters the packet network would install.
func fluidChannels(fc FC, topo *topology.Topology, cfg netsim.Config, fp FCParams) ([]fluid.NetChannel, error) {
	var out []fluid.NetChannel
	for n := 0; n < topo.NumNodes(); n++ {
		id := topology.NodeID(n)
		host := topo.Node(id).Kind == topology.Host
		for _, at := range topo.Ports(id) {
			if at.Link.Failed {
				continue
			}
			ch := fluid.NetChannel{
				Node: id, Port: at.Port,
				Capacity: at.Link.Capacity,
				Buffer:   cfg.BufferSize,
				Host:     host,
			}
			if host {
				ch.Buffer = netsim.HostIngressBuffer
			} else {
				// Threshold derivation uses the worst-case budget τ
				// (config override, else equation (6) per link), exactly
				// like netsim.Network.tauFor.
				tau := cfg.Tau
				if tau <= 0 {
					tau = core.Tau(at.Link.Capacity, cfg.MTU, at.Link.Delay, cfg.ProcDelay)
				}
				m, period, err := fluidMapping(fc, fp, cfg, at.Link.Capacity, tau)
				if err != nil {
					return nil, fmt.Errorf("scenario: fluid backend: %s ingress from %s: %w",
						topo.Node(id).Name, topo.Node(at.Peer).Name, err)
				}
				ch.Mapping = m
				ch.Period = period
				// The dynamics lag is the physical feedback latency the
				// packet network actually exhibits — equation (6) plus a
				// few packets of serialisation the fluid model elides
				// (calibrated by the differential harness).
				ch.Tau = core.Tau(at.Link.Capacity, cfg.MTU, at.Link.Delay, cfg.ProcDelay) +
					4*units.TransmissionTime(cfg.MTU, at.Link.Capacity)
			}
			out = append(out, ch)
		}
	}
	return out, nil
}

// fluidMapping derives one channel's queue-to-rate law from the same
// parameters the flowcontrol factories use. Any change to a factory's
// derivation must be mirrored here — the conformance suite catches drift.
func fluidMapping(fc FC, fp FCParams, cfg netsim.Config, capacity units.Rate, tau units.Time) (fluid.Mapping, units.Time, error) {
	buffer := cfg.BufferSize
	mtu := cfg.MTU
	switch fc {
	case PFC:
		xoff, xon := fp.XOFF, fp.XON
		if xoff <= 0 {
			pc, err := flowcontrol.RecommendedPFC(flowcontrol.Params{
				Capacity: capacity, Buffer: buffer, MTU: mtu, Tau: tau,
			})
			if err != nil {
				return nil, 0, err
			}
			xoff, xon = pc.XOFF, pc.XON
		}
		if xon <= 0 || xon > xoff || buffer-xoff < units.BytesIn(capacity, tau) {
			return nil, 0, fmt.Errorf("fluid: PFC thresholds XOFF=%v XON=%v invalid for buffer %v, τ=%v",
				xoff, xon, buffer, tau)
		}
		return &fluid.OnOff{C: capacity, XOFF: xoff, XON: xon}, 0, nil
	case GFCBuf:
		bm := fp.Bm
		if bm <= 0 {
			bm = buffer - 4*mtu
		}
		const ratio = 0.5
		need := units.Size(float64(units.BytesIn(capacity, tau)) / (1 - ratio))
		bound := bm - need
		b1 := fp.B1
		if b1 <= 0 {
			b1 = bound
		}
		if b1 > bound {
			return nil, 0, fmt.Errorf("fluid: B1 %v above the safe bound %v (Bm − Cτ/(1−r))", b1, bound)
		}
		st, err := core.NewStageTableRatio(capacity, bm, b1, ratio)
		if err != nil {
			return nil, 0, err
		}
		return fluid.Staged{T: st}, 0, nil
	case GFCTime:
		period := fp.Period
		if period <= 0 {
			period = flowcontrol.RecommendedCBFCPeriod(capacity)
		}
		bm := fp.Bm
		if bm <= 0 {
			bm = buffer - 4*mtu
		}
		b0 := fp.B0
		if b0 <= 0 {
			b0 = core.TimeBasedB0Bound(bm, capacity, tau, period)
		}
		if b0 <= 0 || b0 >= bm {
			return nil, 0, fmt.Errorf("fluid: time-based B0 %v outside (0, Bm=%v)", b0, bm)
		}
		m := core.ContinuousMapping{C: capacity, B0: b0, Bm: bm}
		return fluid.Floored{M: fluid.Continuous{M: m}, Min: flowcontrol.DefaultMinRate}, period, nil
	case GFCConceptual:
		bm := fp.Bm
		if bm <= 0 {
			bm = buffer
		}
		b0 := fp.B0
		if b0 <= 0 {
			b0 = core.ConceptualB0Bound(bm, capacity, tau)
		}
		if b0 <= 0 || b0 >= bm {
			return nil, 0, fmt.Errorf("fluid: conceptual B0 %v outside (0, Bm=%v)", b0, bm)
		}
		m := core.ContinuousMapping{C: capacity, B0: b0, Bm: bm}
		return fluid.Floored{M: fluid.Continuous{M: m}, Min: flowcontrol.DefaultMinRate}, 0, nil
	default:
		return nil, 0, fmt.Errorf("fluid: no mapping for scheme %q", fc)
	}
}

// renderGeneratorFlows builds the saturating generator stand-in: for every
// host, FlowsPerHost unbounded flows toward seeded uniformly-random
// inter-rack reachable destinations (the generator's own destination rule).
// Deterministic per (spec, seed); hosts with no reachable inter-rack peer
// stay idle, exactly like workload.Generator.
func renderGeneratorFlows(spec Spec, topo *topology.Topology, tab *routing.Table) ([]fluid.NetFlow, error) {
	g := spec.Workload.Generator
	if tab == nil {
		return nil, fmt.Errorf("scenario: workload generator needs a routing table (set routing policy spf)")
	}
	seed := g.Seed
	if seed == 0 {
		seed = spec.Seed
	}
	rng := rand.New(rand.NewSource(seed))
	racks := workload.EdgeRacks(topo)
	hosts := topo.Hosts()
	k := g.FlowsPerHost
	if k < 1 {
		k = 1
	}
	var out []fluid.NetFlow
	id := 0
	for _, h := range hosts {
		for i := 0; i < k; i++ {
			dst, ok := pickDst(rng, tab, racks, hosts, h)
			if !ok {
				break // no reachable inter-rack destination: host idle
			}
			id++
			key := uint64(id)*1315423911 ^ uint64(h)<<24 ^ uint64(dst)
			path, err := tab.Path(h, dst, key)
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

// pickDst mirrors workload.Generator.pickDst: rejection-sample, then scan.
func pickDst(rng *rand.Rand, tab *routing.Table, racks workload.RackOf, hosts []topology.NodeID, src topology.NodeID) (topology.NodeID, bool) {
	for try := 0; try < 16; try++ {
		d := hosts[rng.Intn(len(hosts))]
		if d != src && racks(d) != racks(src) && tab.Reachable(src, d) {
			return d, true
		}
	}
	var candidates []topology.NodeID
	for _, d := range hosts {
		if d != src && racks(d) != racks(src) && tab.Reachable(src, d) {
			candidates = append(candidates, d)
		}
	}
	if len(candidates) == 0 {
		return topology.None, false
	}
	return candidates[rng.Intn(len(candidates))], true
}

// fluidSim is the fluid backend's Runner: a compiled NetConfig plus the
// context the analytic checker needs.
type fluidSim struct {
	spec   Spec
	topo   *topology.Topology
	tab    *routing.Table
	reg    *metrics.Registry
	cfg    netsim.Config
	fp     FCParams
	netcfg fluid.NetConfig
	// paths back the CBD verdict; genUnion folds in the all-inter-rack-
	// pairs union when the workload is a rendered generator.
	paths     [][]routing.Hop
	genUnion  bool
	cbdCyclic *bool
	ran       bool
}

// RunBounded implements Runner. Event budgets do not apply to a rate
// integrator; the horizon is the spec's duration and ctx cancellation is
// honoured mid-integration.
func (s *fluidSim) RunBounded(ctx context.Context, _ netsim.Budget) (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("scenario: fluid runner is single-use")
	}
	s.ran = true
	s.netcfg.Ctx = ctx
	nres, err := fluid.RunNet(s.netcfg)
	if err != nil {
		if nres == nil {
			return nil, err
		}
		return s.summarise(nres), err
	}
	res := s.summarise(nres)
	if s.spec.Run.Analytic && s.reg != nil {
		res.Analytic = s.analyticCheck(res)
	}
	return res, nil
}

func (s *fluidSim) summarise(nres *fluid.NetResult) *Result {
	res := &Result{
		Name:       s.spec.Name,
		FC:         s.spec.Scheme.FC,
		Backend:    "fluid",
		End:        nres.End,
		Deadlocked: nres.Deadlocked,
		DeadlockAt: nres.DeadlockAt,
		Drops:      nres.Drops,
		Delivered:  nres.Delivered,
		HighWater:  nres.HighWater,
	}
	if s.reg != nil {
		res.Violations = s.reg.Summary().Violations
	}
	return res
}

// Predict mirrors Sim.Predict on the fluid compilation: the same
// analytic.Input from the same resolved config and thresholds.
func (s *fluidSim) Predict() (*analytic.Prediction, error) {
	known, cyclic := s.cbdVerdict()
	return analytic.Predict(analytic.Input{
		Topo:   s.topo,
		Scheme: analytic.Scheme(s.spec.Scheme.FC),
		Cfg:    s.cfg,
		Params: analytic.Params{
			XOFF:   s.fp.XOFF,
			XON:    s.fp.XON,
			B1:     s.fp.B1,
			Bm:     s.fp.Bm,
			B0:     s.fp.B0,
			Period: s.fp.Period,
		},
		CBDKnown:  known,
		CBDCyclic: cyclic,
		Duration:  s.spec.Run.DurationNs,
	})
}

func (s *fluidSim) cbdVerdict() (known, cyclic bool) {
	if s.cbdCyclic != nil {
		return true, *s.cbdCyclic
	}
	g := cbd.NewGraph(s.topo)
	for _, p := range s.paths {
		g.AddPath(p)
	}
	c := g.HasCycle()
	if s.genUnion && s.tab != nil {
		union := cbd.FromAllPairs(s.topo, s.tab, workload.EdgeRacks(s.topo))
		c = c || union.HasCycle()
	}
	s.cbdCyclic = &c
	return true, c
}

func (s *fluidSim) analyticCheck(res *Result) *AnalyticCheck {
	pred, err := s.Predict()
	if err != nil {
		return &AnalyticCheck{Err: err}
	}
	b := pred.Bounds()
	if ierr := s.reg.CheckNetwork(b, res.End, res.Delivered, res.Deadlocked); ierr != nil {
		return &AnalyticCheck{Prediction: pred, Err: ierr}
	}
	return &AnalyticCheck{Prediction: pred}
}
