package scenario

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/analytic"
	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/workload"
)

// compiled is the one resolution of a Spec (plus Overrides) that every
// consumer shares. Build wires the packet engine from it, FluidBackend.Build
// the fluid solver, and Predict reads the analytic model's input off it — so
// the three oracles analyse the same configured network by construction
// rather than by three derivations that have to be kept in step.
type compiled struct {
	spec  Spec
	topo  *topology.Topology
	table *routing.Table // nil when nothing routes through one
	// cfg is default-filled (netsim's own filler) with the scheme's factory
	// and the registry set; Trace and Faults are the packet engine's to add.
	cfg netsim.Config
	fp  FCParams
	// reg is the caller's registry, or a counters-only one when the spec
	// asks for the analytic check (which consumes end-of-run aggregates;
	// registries are passive observers, so attaching one cannot change the
	// event sequence). Nil otherwise. Unbound: the backend binds it.
	reg *metrics.Registry
	// flows are the declared flows (pattern or Flows section) in add order.
	flows []resolvedFlow
	// plan is the spec's faults section compiled on topo, seeded with
	// faultSeed; nil for an unfaulted run.
	plan      *faults.Plan
	faultSeed int64
	// rendered are routes a backend adds to the declared flows' (the fluid
	// generator stand-in); the CBD verdict covers both. cbdCyclic caches
	// the verdict, or carries the override.
	rendered  [][]routing.Hop
	cbdCyclic *bool
	// builtTopo is set when compile built topo from the spec's section
	// rather than taking Overrides.Topo: only then is a fat-tree spec's
	// topo known to be FatTree(k), the tree the census reads.
	builtTopo bool
	// pred is the prediction the fluid backend's refusal check made (nil on
	// the packet engine); the end-of-run verdict reuses it, so a fluid sweep
	// repeat predicts once.
	pred *analytic.Prediction
}

// compile validates spec — the check Parse runs, so every backend's build
// refuses what Parse refuses — then resolves it once. A topology or table
// supplied through Overrides replaces the declared section's build, not its
// check. The order — topology, routing, config, registry, faults, flows — is
// the order every hand-written driver used; nothing here draws from a random
// source the engines also draw from.
func compile(spec Spec, ov *Overrides) (*compiled, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &compiled{spec: spec, topo: ov.Topo, table: ov.Table, reg: ov.Metrics, cbdCyclic: ov.CBDCyclic}
	var err error
	if c.topo == nil {
		c.builtTopo = true
		if c.topo, err = buildTopology(spec.Topology); err != nil {
			return nil, err
		}
	}
	if c.table == nil {
		if c.table, err = buildRouting(spec, c.topo); err != nil {
			return nil, err
		}
	}
	if spec.Workload.Generator != nil && c.table == nil {
		return nil, fmt.Errorf("scenario: workload generator needs a routing table (set routing policy spf)")
	}
	c.cfg, c.fp = spec.simConfig()
	c.cfg.FillDefaults()
	if spec.Run.Analytic && c.reg == nil {
		c.reg = metrics.New(metrics.Options{})
	}
	c.cfg.Metrics = c.reg

	if spec.Faults != nil {
		fs := spec.Faults.Inline
		if fs == nil {
			if fs, err = faults.Preset(spec.Faults.Preset); err != nil {
				return nil, err
			}
		}
		if c.plan, err = fs.Compile(c.topo); err != nil {
			return nil, fmt.Errorf("scenario: compiling faults: %w", err)
		}
		if c.faultSeed = spec.Faults.Seed; c.faultSeed == 0 {
			c.faultSeed = spec.Seed
		}
	}

	if c.flows, err = resolveFlows(spec, c.topo, c.table); err != nil {
		return nil, err
	}
	return c, nil
}

// generatorSeed is the workload generator's private seed.
func (c *compiled) generatorSeed() int64 {
	if s := c.spec.Workload.Generator.Seed; s != 0 {
		return s
	}
	return c.spec.Seed
}

// AnalyticCheck is the network-wide analytic verdict attached to a Result
// when Run.Analytic is set.
type AnalyticCheck struct {
	// Prediction is the per-topology analytic prediction the run was
	// checked against (nil when the scenario could not be analysed).
	Prediction *analytic.Prediction
	// Err is nil when every asserted bound held. Otherwise it is either
	// the *metrics.InvariantError listing the violated network-wide
	// bounds, or the analysis error when the prediction itself failed.
	Err error
}

// predict computes the analytic prediction for the compiled scenario
// (internal/analytic, DESIGN.md §3.8) from the very configuration and
// thresholds the engines run with.
func (c *compiled) predict() (*analytic.Prediction, error) {
	return analytic.Predict(analytic.Input{
		Topo:   c.topo,
		Scheme: analytic.Scheme(c.spec.Scheme.FC),
		Cfg:    c.cfg,
		Params: analytic.Params{
			XOFF:   c.fp.XOFF,
			B1:     c.fp.B1,
			Bm:     c.fp.Bm,
			B0:     c.fp.B0,
			Period: c.fp.Period,
		},
		CBDCyclic: c.cbdVerdict(),
		Faulted:   c.plan != nil,
		Duration:  c.spec.Run.DurationNs,
	})
}

// cbdVerdict reports whether the workload's routes can close a cyclic buffer
// dependency. It comes from Overrides.CBDCyclic when supplied (sweeps
// precompute it per topology); otherwise it is derived once from the
// workload's paths and cached. A generator can start a flow between any
// inter-rack host pair, so its presence folds in the union of all such
// routes — the conservative superset of what the run may route — unless the
// failed-link census finds a fat-tree without a valley pair, on which that
// union is acyclic (cbd.FatTreeMask.HasValley; the table is SPF's over
// c.topo).
func (c *compiled) cbdVerdict() bool {
	if c.cbdCyclic == nil {
		g := cbd.NewGraph(c.topo)
		for _, rf := range c.flows {
			g.AddPath(rf.flow.Path)
		}
		for _, p := range c.rendered {
			g.AddPath(p)
		}
		cyclic := g.HasCycle()
		if c.spec.Workload.Generator != nil && !cyclic && !c.valleyFree() {
			cyclic = cbd.FromAllPairs(c.topo, c.table, workload.EdgeRacks(c.topo)).HasCycle()
		}
		c.cbdCyclic = &cyclic
	}
	return *c.cbdCyclic
}

// valleyFree runs the failed-link census on a fat-tree compile built itself
// (up to k = 128, the mask's width). It reports false, so the caller runs the
// full scan, for a valley pair and for any other topology, a prebuilt one
// included.
func (c *compiled) valleyFree() bool {
	t := c.spec.Topology
	return c.builtTopo && t.Builder == "fat-tree" && t.K <= 128 && !cbd.FatTreeMaskOf(c.topo, t.K).HasValley()
}

// verify checks res against the analytic prediction, returning the prediction
// and the verdict: nil when every network-wide bound held, a
// *metrics.InvariantError otherwise. A run that was stopped early
// (res.Stopped != nil) drops the progress floor — the horizon the floor
// reasons about was never reached.
func (c *compiled) verify(res *Result) (*analytic.Prediction, error) {
	pred := c.pred
	if pred == nil {
		var err error
		if pred, err = c.predict(); err != nil {
			return nil, err
		}
	}
	if c.reg == nil {
		return pred, fmt.Errorf("scenario: analytic check needs a metrics registry (set run.analytic or attach one via Overrides)")
	}
	b := pred.NetworkBounds
	if res.Stopped != nil {
		b.MinDelivered = 0
	}
	if ierr := c.reg.CheckNetwork(b, res.End, res.Delivered, res.Deadlocked); ierr != nil {
		return pred, ierr
	}
	return pred, nil
}

// check wraps verify into the Result attachment.
func (c *compiled) check(res *Result) *AnalyticCheck {
	pred, err := c.verify(res)
	return &AnalyticCheck{Prediction: pred, Err: err}
}

// finish completes a backend's summary: the registry's violation count and,
// once res is otherwise complete (Stopped set), the analytic verdict when the
// spec asked for it.
func (c *compiled) finish(res *Result) *Result {
	res.Name, res.FC = c.spec.Name, c.spec.Scheme.FC
	if c.reg != nil {
		res.Violations = c.reg.Summary().Violations
		if c.spec.Run.Analytic {
			res.Analytic = c.check(res)
		}
	}
	return res
}
