package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/gfcsim/gfc/internal/analytic"
	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// Overrides carry the runtime-only hooks a Spec cannot serialise. All fields
// are optional; the zero value builds the spec exactly as written.
type Overrides struct {
	// Trace builds the run's observation hooks once the topology exists
	// (closures usually capture node IDs). Installed before the network
	// is constructed, like every hand-written driver did.
	Trace func(*topology.Topology) *netsim.Trace
	// Metrics attaches a fresh registry to the simulation.
	Metrics *metrics.Registry
	// Topo supplies a prebuilt topology, skipping the spec's builder
	// (sweeps reuse one topology across repeats).
	Topo *topology.Topology
	// Table supplies a prebuilt routing table, skipping the spec's
	// routing policy.
	Table *routing.Table
	// OnFlow runs for each declared flow after construction and before
	// AddFlow — the hook congestion-control attachments (DCQCN) need.
	OnFlow func(*netsim.Flow, *netsim.Network) error
	// CBDCyclic, when non-nil, supplies a precomputed cyclic-buffer-
	// dependency verdict for the analytic checker (true: the workload's
	// paths can close a dependency cycle). Sweeps compute the CBD graph
	// once per generated topology and pass the verdict here; nil lets
	// Sim.Predict derive it from the built workload.
	CBDCyclic *bool
}

// Sim is a built, ready-to-run scenario: the network plus handles to every
// subsystem the spec instantiated.
type Sim struct {
	Spec Spec
	Topo *topology.Topology
	Net  *netsim.Network
	// Flows lists the declared flows in add order (pattern or Flows
	// section; generator flows are not included).
	Flows    []*netsim.Flow
	Gen      *workload.Generator
	Detector *deadlock.Detector
	// DCFIT is the in-data-plane detector, installed when Run.Detector is
	// "dcfit" or "both" (for "dcfit" alone, Detector stays nil).
	DCFIT    *deadlock.DCFIT
	Injector *faults.Injector
	Metrics  *metrics.Registry

	// compiled is the resolution of Spec the network was wired from; the
	// analytic predictor reads the same one.
	*compiled
}

// verdict returns the report driving the run's stop condition and summary:
// the global detector's when it is installed, else DCFIT's; nil when none.
func (s *Sim) verdict() *deadlock.Report {
	switch {
	case s.Detector != nil:
		return s.Detector.Deadlocked()
	case s.DCFIT != nil:
		return s.DCFIT.Deadlocked()
	}
	return nil
}

// poll checks the installed detectors every PollInterval until each has a
// report. Under StopOnDeadlock it stops the engine once verdict has one.
func (s *Sim) poll() {
	eng := s.Net.Engine()
	var tick func(int32)
	tick = func(int32) {
		pending := s.Detector != nil && s.Detector.Check() == nil
		if s.DCFIT != nil && s.DCFIT.Check() == nil {
			pending = true
		}
		if s.Spec.Run.StopOnDeadlock && s.verdict() != nil {
			eng.Stop()
			return
		}
		if pending {
			eng.After(deadlock.PollInterval, tick, 0)
		}
	}
	eng.After(deadlock.PollInterval, tick, 0)
}

// Build compiles a Spec (plus optional Overrides) into a runnable Sim. The
// construction order is fixed — the shared compile step (topology, routing,
// config, faults), then network, flows, generator, detector — because it is
// the order every hand-written driver used, and event determinism (the golden
// trace hashes) depends on subsystems consuming their private random sources
// in that order.
func Build(spec Spec, ov *Overrides) (*Sim, error) {
	if ov == nil {
		ov = &Overrides{}
	}
	c, err := compile(spec, ov)
	if err != nil {
		return nil, err
	}
	cfg := c.cfg
	if ov.Trace != nil {
		cfg.Trace = ov.Trace(c.topo)
	}
	sim := &Sim{Spec: spec, Topo: c.topo, Metrics: c.reg, compiled: c}
	if c.plan != nil {
		sim.Injector = c.plan.NewInjector(c.faultSeed)
		cfg.Faults = sim.Injector
	}
	if sim.Net, err = netsim.New(c.topo, cfg); err != nil {
		return nil, err
	}
	for _, rf := range c.flows {
		if ov.OnFlow != nil {
			if err := ov.OnFlow(rf.flow, sim.Net); err != nil {
				return nil, err
			}
		}
		if err := sim.Net.AddFlow(rf.flow, rf.start); err != nil {
			return nil, err
		}
		sim.Flows = append(sim.Flows, rf.flow)
	}
	if g := spec.Workload.Generator; g != nil {
		gen := workload.NewGenerator(sim.Net, c.table, buildDist(g), workload.EdgeRacks(c.topo), c.generatorSeed())
		gen.FlowsPerHost = g.FlowsPerHost
		if err := gen.Start(); err != nil {
			return nil, err
		}
		sim.Gen = gen
	}
	if spec.Run.DetectDeadlock || spec.Run.StopOnDeadlock {
		global, dcfit := true, false
		switch spec.Run.Detector {
		case "dcfit":
			global, dcfit = false, true
		case "both":
			dcfit = true
		}
		if global {
			sim.Detector = deadlock.NewDetector(sim.Net)
		}
		if dcfit {
			sim.DCFIT = deadlock.NewDCFIT(sim.Net)
		}
		sim.poll()
	}
	return sim, nil
}

// Result summarises one Sim.Run.
type Result struct {
	Name         string
	FC           FC
	End          units.Time
	Deadlocked   bool
	DeadlockAt   units.Time
	DeadlockKind deadlock.Kind
	// DCFITDeadlocked / DCFITAt are the in-data-plane detector's verdict
	// when it was installed (Run.Detector "dcfit" or "both"). With "both",
	// the fields above stay the global detector's verdict so the two can
	// be compared.
	DCFITDeadlocked bool
	DCFITAt         units.Time
	Drops           int64
	Delivered       units.Size
	// HighWater is the maximum switch-ingress occupancy the attached
	// registry observed (zero when no registry was attached).
	HighWater units.Size
	// Backend names the simulation backend that produced this result:
	// "packet" (netsim) or "fluid" (the network-of-queues rate model).
	Backend string
	// Violations is the attached registry's invariant-violation count
	// (zero when no registry was attached).
	Violations int64
	FaultStats faults.Stats
	// Stopped is the governor verdict when the run was ended by a budget,
	// the stall watchdog or cancellation; nil for a run that reached its
	// declared end. The summary fields above still describe the partial
	// run up to the stop point.
	Stopped *netsim.RunError
	// Analytic carries the network-wide analytic verdict when
	// Run.Analytic was set (nil otherwise). Run and RunBounded fill it
	// after Stopped is known — early-stopped runs drop the progress
	// floor.
	Analytic *AnalyticCheck
}

// Run executes the built scenario to its declared duration under the run
// governor with no caller budget or cancellation: the spec's declared Limits
// still apply, and a trip is reported in Result.Stopped.
func (s *Sim) Run() *Result {
	res, _ := s.RunBounded(context.Background(), netsim.Budget{})
	return res
}

// RunBounded executes the built scenario to its declared duration under the
// netsim run governor: ctx cancellation, event/wall/heap budgets and the
// stall watchdog all apply, composed from the spec's Limits block overlaid
// with the caller's extra budget (non-zero caller fields win). A tripped
// governor returns the partial Result — with Result.Stopped set — alongside
// the *netsim.RunError. With StopOnDeadlock the run ends at the detector's
// first report. No event past the horizon fires.
func (s *Sim) RunBounded(ctx context.Context, extra netsim.Budget) (*Result, error) {
	d := s.Spec.Run.DurationNs
	// A heartbeat pins the horizon so the clock reaches d even if the
	// event queue drains early (deadlock, finished workload).
	s.Net.Engine().At(d, func(int32) {}, 0)
	err := s.Net.RunBounded(ctx, d, s.Spec.Limits.Budget().Overlay(extra))
	res := s.summarise()
	var re *netsim.RunError
	if errors.As(err, &re) {
		res.Stopped = re
	}
	return s.finish(res), err
}

// summarise collects the run's verdict from the network and subsystems.
func (s *Sim) summarise() *Result {
	res := &Result{
		Backend:   "packet",
		End:       s.Net.Now(),
		Drops:     s.Net.Drops(),
		Delivered: s.Net.TotalDelivered(),
	}
	if rep := s.verdict(); rep != nil {
		res.Deadlocked = true
		res.DeadlockAt = rep.At
		res.DeadlockKind = rep.Kind
	}
	if s.DCFIT != nil {
		if rep := s.DCFIT.Deadlocked(); rep != nil {
			res.DCFITDeadlocked = true
			res.DCFITAt = rep.At
		}
	}
	if s.Metrics != nil {
		res.HighWater = s.Metrics.SwitchHighWater()
	}
	if s.Injector != nil {
		res.FaultStats = s.Injector.Stats()
	}
	return res
}

// Predict computes the analytic prediction for this built scenario
// (internal/analytic, DESIGN.md §3.8) from the configuration and thresholds
// the network was wired with. The cyclic-buffer-dependency verdict comes from
// Overrides.CBDCyclic when supplied; otherwise it is derived once from the
// workload's routes and cached.
func (s *Sim) Predict() (*analytic.Prediction, error) { return s.predict() }

func buildTopology(t TopologySpec) (*topology.Topology, error) {
	p := topology.DefaultLinkParams()
	if t.CapacityBps != 0 {
		p.Capacity = t.CapacityBps
	}
	if t.DelayNs != 0 {
		p.Delay = t.DelayNs
	}
	var topo *topology.Topology
	switch t.Builder {
	case "ring":
		topo = topology.RingHosts(t.n(), t.hosts(), p)
	case "fat-tree":
		topo = topology.FatTree(t.K, p)
	case "dumbbell":
		topo = topology.Dumbbell(t.N, p)
	case "linear":
		topo = topology.Linear(t.N, p)
	case "two-to-one":
		topo = topology.TwoToOne(p)
	default:
		return nil, fmt.Errorf("scenario: topology: unknown builder %q", t.Builder)
	}
	for _, pair := range t.FailLinks {
		a, b, err := splitLink(pair)
		if err != nil {
			return nil, err
		}
		na, ok := topo.Lookup(a)
		if !ok {
			return nil, fmt.Errorf("scenario: topology: fail_links %q: no node named %q", pair, a)
		}
		nb, ok := topo.Lookup(b)
		if !ok {
			return nil, fmt.Errorf("scenario: topology: fail_links %q: no node named %q", pair, b)
		}
		if topo.LinkBetween(na, nb) == nil {
			return nil, fmt.Errorf("scenario: topology: no live link %q to fail", pair)
		}
		topo.FailLinkBetween(a, b)
	}
	if fr := t.FailRandom; fr != nil {
		topo.FailRandomLinks(rand.New(rand.NewSource(fr.Seed)), fr.Prob)
	}
	return topo, nil
}

func splitLink(pair string) (string, string, error) {
	for i := 0; i < len(pair); i++ {
		if pair[i] == '-' {
			return pair[:i], pair[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("scenario: topology: fail_links entry %q is not \"A-B\"", pair)
}

func buildRouting(spec Spec, topo *topology.Topology) (*routing.Table, error) {
	switch spec.Routing.Policy {
	case "spf":
		return routing.NewSPF(topo), nil
	case "none":
		return nil, nil
	default: // "auto", "": build SPF only if something needs a table.
		if spec.needsRouting() {
			return routing.NewSPF(topo), nil
		}
		return nil, nil
	}
}

// needsRouting reports whether any workload element resolves paths through a
// routing table.
func (s *Spec) needsRouting() bool {
	if s.Workload.Generator != nil {
		return true
	}
	for _, f := range s.Workload.Flows {
		if len(f.Path) == 0 {
			return true
		}
	}
	return false
}

// simConfig composes the netsim.Config from the scheme preset and Sim
// overrides, resolves the flow-control factory, and returns the resolved
// FCParams alongside (the analytic predictor consumes the same thresholds
// the factories will install). s has passed Validate.
func (s *Spec) simConfig() (netsim.Config, FCParams) {
	var cfg netsim.Config
	var fp FCParams
	switch s.Scheme.Preset {
	case "testbed":
		cfg, fp = TestbedParams()
	case "sim":
		cfg, fp = SimParams()
	}
	fp = fp.merge(s.Scheme.Params)
	m := s.Sim
	if m.BufferBytes != 0 {
		cfg.BufferSize = m.BufferBytes
	}
	if m.MTUBytes != 0 {
		cfg.MTU = m.MTUBytes
	}
	if m.ProcDelayNs != 0 {
		cfg.ProcDelay = m.ProcDelayNs
	}
	if m.TauNs != 0 {
		cfg.Tau = m.TauNs
	}
	if m.ECNBytes != 0 {
		cfg.ECNThreshold = m.ECNBytes
	}
	if m.TxRing != 0 {
		cfg.TxRing = m.TxRing
	}
	cfg.Scheduling = schedulings[m.Scheduling]
	cfg.FlowControl = fp.Factory(s.Scheme.FC)
	if s.Scheme.FC == BFC {
		// BFC's per-queue pause needs the physical queues to exist in the
		// switch model; FlowQueues > 0 also forces FIFO scheduling.
		q := fp.Queues
		if q <= 0 {
			q = flowcontrol.DefaultBFCQueues
		}
		cfg.FlowQueues = q
	}
	return cfg, fp
}

// resolvedFlow is one declared flow with its resolved path and start time —
// the backend-independent part of workload instantiation. Both backends
// consume the same resolution so their workloads match flow for flow.
type resolvedFlow struct {
	flow  *netsim.Flow
	start units.Time
}

// resolveFlows materialises the pattern or declared-flows section, in add
// order, without touching any simulator.
func resolveFlows(spec Spec, topo *topology.Topology, tab *routing.Table) ([]resolvedFlow, error) {
	w := spec.Workload
	if w.Pattern == "ring-clockwise" {
		t := spec.Topology
		var out []resolvedFlow
		for i, path := range routing.RingHostsClockwisePaths(topo, t.n(), t.hosts()) {
			out = append(out, resolvedFlow{flow: &netsim.Flow{
				ID:   i + 1,
				Src:  path[0].Node,
				Dst:  path[len(path)-1].Link.Other(path[len(path)-1].Node),
				Path: path,
			}})
		}
		return out, nil
	}
	var out []resolvedFlow
	for i, fs := range w.Flows {
		f := &netsim.Flow{
			ID:   fs.id(i),
			Size: fs.SizeBytes,
		}
		if len(fs.Path) > 0 {
			path, err := routing.ExplicitPath(topo, fs.Path...)
			if err != nil {
				return nil, fmt.Errorf("scenario: flows[%d]: %w", i, err)
			}
			f.Src = path[0].Node
			f.Dst = path[len(path)-1].Link.Other(path[len(path)-1].Node)
			f.Path = path
		} else {
			if tab == nil {
				return nil, fmt.Errorf("scenario: flows[%d]: src/dst flow needs a routing table (set routing policy spf)", i)
			}
			src, ok := topo.Lookup(fs.Src)
			if !ok {
				return nil, fmt.Errorf("scenario: flows[%d]: no node named %q", i, fs.Src)
			}
			dst, ok := topo.Lookup(fs.Dst)
			if !ok {
				return nil, fmt.Errorf("scenario: flows[%d]: no node named %q", i, fs.Dst)
			}
			path, err := tab.Path(src, dst, uint64(f.ID))
			if err != nil {
				return nil, fmt.Errorf("scenario: flows[%d]: %w", i, err)
			}
			f.Src = src
			f.Dst = dst
			f.Path = path
		}
		out = append(out, resolvedFlow{flow: f, start: fs.StartNs})
	}
	return out, nil
}

// buildDist is the validated generator's size distribution.
func buildDist(g *GeneratorSpec) *workload.SizeDist {
	if g.Dist == "uniform" {
		return workload.Uniform(g.UniformBytes)
	}
	return workload.Enterprise()
}
