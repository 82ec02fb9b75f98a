package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"github.com/gfcsim/gfc/internal/analytic"
	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/fluid"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/runner"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// sizes are the input sizes of the five workloads. fullSizes is what the
// benchmark measures; smokeSizes keeps `go test` fast.
type sizes struct {
	ringHorizon units.Time // ring_packet simulated horizon, per scheme
	ringTwin    units.Time // the untimed twin with a metrics registry
	closK       int        // fat-tree arity of clos1024_packet
	closHorizon units.Time
	matrices    int        // RunFaultMatrix calls per repetition
	matrixCell  units.Time // fault-matrix cell duration; 0 = its 60 ms default
	sweepProne  int        // CBD-prone topologies simulated per scheme
	sweepCell   units.Time // table1_sweep cell horizon
	fluidProne  int
	fluidCell   units.Time // table1_fluid cell horizon
	fluidReps   int        // workload repeats per prone topology, table1_fluid
	gapCells    int        // packet twins per scheme behind fluid_hw_gap_band
	// The per-layer ladder.
	layerRing  units.Time // ring horizon of the netsim/flowcontrol/tap rungs
	tapPairs   int        // interleaved bare/tapped pairs per tap
	holdOps    int        // Step+Schedule pairs per hold-model depth
	holdDeep   int        // the deepest hold-model population
	clos128Dur units.Time
	layerCells int // sweep cells replayed per scheme
	genScan    int // topologies generated for generate_us and the prone share
	storeN     int // checkpoint entries recorded and replayed
	runnerJobs int
}

var fullSizes = sizes{
	ringHorizon: 500 * units.Millisecond,
	ringTwin:    60 * units.Millisecond,
	closK:       16,
	closHorizon: units.Millisecond,
	matrices:    1,
	sweepProne:  20,
	sweepCell:   10 * units.Millisecond,
	fluidProne:  30,
	fluidCell:   25 * units.Millisecond,
	fluidReps:   3,
	gapCells:    5,

	layerRing:  100 * units.Millisecond,
	tapPairs:   5,
	holdOps:    2_000_000,
	holdDeep:   1 << 20,
	clos128Dur: 5 * units.Millisecond,
	layerCells: 8,
	genScan:    200,
	storeN:     20_000,
	runnerJobs: 100_000,
}

var smokeSizes = sizes{
	ringHorizon: 2 * units.Millisecond,
	ringTwin:    2 * units.Millisecond,
	closK:       4,
	closHorizon: units.Millisecond,
	matrices:    1,
	matrixCell:  12 * units.Millisecond,
	sweepProne:  2,
	sweepCell:   2 * units.Millisecond,
	fluidProne:  2,
	fluidCell:   2 * units.Millisecond,
	fluidReps:   1,
	gapCells:    1,

	layerRing:  2 * units.Millisecond,
	tapPairs:   1,
	holdOps:    20_000,
	holdDeep:   1 << 12,
	clos128Dur: 200 * units.Microsecond,
	layerCells: 1,
	genScan:    30,
	storeN:     200,
	runnerJobs: 1000,
}

// slices is how many equal simulated-time slices a traced packet run is cut
// into; the standing event population is read at each boundary.
const slices = 20

// sweepK and sweepP are the Table 1 slice every sweep workload runs: k=4
// fat-trees, the paper's 5 % link-failure probability.
const (
	sweepK = 4
	sweepP = 0.05
)

var workloads = []*workloadDef{
	{name: "ring_packet", setup: ringSetup, run: ringRun, check: ringCheck},
	{name: "clos1024_packet", setup: closSetup, run: closRun, liveHeap: true},
	{name: "fault_matrix", setup: matrixSetup, run: matrixRun},
	{name: "table1_sweep", setup: sweepSetup(false), run: sweepRun},
	{name: "table1_fluid", setup: sweepSetup(true), run: fluidRun, check: fluidCheck},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// packetStats are the exact simulated statistics of one packet run.
type packetStats struct {
	events     uint64
	delivered  units.Size
	drops      int64
	deadlocked bool
	pending    []int // standing events at each slice boundary (traced only)
}

// runPacket runs a built simulation to its declared horizon through the
// entry point a user calls — Sim.Run, or Sim.RunBounded when governed —
// or, when sliced, in equal simulated-time slices through Network.Run /
// Network.RunBounded with a span and a pending-event reading per slice. The
// slices fire the same events in the same order; the sim.* counts prove it
// on every traced run.
func runPacket(tr *Tracer, sp spanRef, sim *scenario.Sim, governed, sliced bool) (packetStats, error) {
	ctx := context.Background()
	eng := sim.Net.Engine()
	var st packetStats
	switch {
	case !sliced && governed:
		if _, err := sim.RunBounded(ctx, netsim.Budget{}); err != nil {
			return st, err
		}
	case !sliced:
		sim.Run()
	default:
		d := sim.Spec.Run.DurationNs
		// As Sim.Run does: pin the horizon so the clock reaches d.
		eng.Schedule(d, func() {})
		for i := 1; i <= slices; i++ {
			s := tr.start(fmt.Sprintf("netsim.slice[%d]", i), sp)
			before := eng.Fired()
			until := d * units.Time(i) / slices
			if governed {
				if err := sim.Net.RunBounded(ctx, until, sim.Spec.Limits.Budget()); err != nil {
					s.end()
					return st, err
				}
			} else {
				sim.Net.Run(until)
			}
			s.count("events", int64(eng.Fired()-before))
			s.count("pending", int64(eng.Pending()))
			s.end()
			st.pending = append(st.pending, eng.Pending())
		}
	}
	st.events = eng.Fired()
	st.delivered = sim.Net.TotalDelivered()
	st.drops = sim.Net.Drops()
	st.deadlocked = sim.Detector != nil && sim.Detector.Deadlocked() != nil
	return st, nil
}

// ---- ring_packet -------------------------------------------------------

var ringSchemes = []scenario.FC{scenario.GFCBuf, scenario.GFCTime}

func ringSpec(env *env, fc scenario.FC, horizon units.Time) (scenario.Spec, error) {
	spec, ok := scenario.Get("ring-steady-gfcbuf")
	if !ok {
		return spec, fmt.Errorf("scenario ring-steady-gfcbuf is not registered")
	}
	spec.Seed = env.seed
	spec.Scheme.FC = fc
	spec.Run.DurationNs = horizon
	return spec, nil
}

func ringSetup(env *env, sp spanRef) (any, error) {
	sims := make([]*scenario.Sim, len(ringSchemes))
	for i, fc := range ringSchemes {
		spec, err := ringSpec(env, fc, env.size.ringHorizon)
		if err != nil {
			return nil, err
		}
		b := env.tr.start("scenario.build", sp)
		sim, err := scenario.Build(spec, nil)
		b.end()
		if err != nil {
			return nil, err
		}
		p := env.tr.start("scenario.predict", sp)
		_, err = sim.Predict()
		p.end()
		if err != nil {
			return nil, err
		}
		sims[i] = sim
	}
	return sims, nil
}

func ringRun(env *env, state any, sp spanRef) *outcome {
	sims := state.([]*scenario.Sim)
	out := &outcome{sim: map[string]int64{}}
	for i, sim := range sims {
		slug := slugOf(ringSchemes[i])
		st, err := runPacket(env.tr, sp, sim, false, env.tr != nil)
		out.cells++
		out.events += st.events
		switch {
		case err != nil:
			out.failf("%s: %v", slug, err)
		case st.drops != 0 || st.deadlocked:
			out.failf("%s: drops=%d deadlocked=%v on the steady ring", slug, st.drops, st.deadlocked)
		}
		out.sim["events."+slug] = int64(st.events)
		out.sim["delivered."+slug] = int64(st.delivered)
		out.sim["drops."+slug] = st.drops
	}
	return out
}

// ringCheck runs the untimed twins: the same ring with a metrics registry,
// whose high-water mark must stay inside the buffer with no violation.
func ringCheck(env *env) (int, []string, map[string]float64) {
	cfg, _ := scenario.TestbedParams()
	twin := func(fc scenario.FC) error {
		spec, err := ringSpec(env, fc, env.size.ringTwin)
		if err != nil {
			return err
		}
		sim, err := scenario.Build(spec, &scenario.Overrides{Metrics: metrics.New(metrics.Options{})})
		if err != nil {
			return err
		}
		res := sim.Run()
		if res.HighWater > cfg.BufferSize || res.Violations != 0 || res.Drops != 0 || res.Deadlocked {
			return fmt.Errorf("high water %v (buffer %v), %d violations, %d drops, deadlocked=%v",
				res.HighWater, cfg.BufferSize, res.Violations, res.Drops, res.Deadlocked)
		}
		return nil
	}
	var fails []string
	for _, fc := range ringSchemes {
		if err := twin(fc); err != nil {
			fails = append(fails, fmt.Sprintf("registry twin %s: %v", slugOf(fc), err))
		}
	}
	return len(ringSchemes), fails, nil
}

// ---- clos1024_packet ---------------------------------------------------

type closState struct {
	sim  *scenario.Sim
	pred *analytic.Prediction
}

func closSpec(env *env) (scenario.Spec, error) {
	spec, ok := scenario.Get("clos1024-gfcbuf")
	if !ok {
		return spec, fmt.Errorf("scenario clos1024-gfcbuf is not registered")
	}
	spec.Seed = env.seed
	spec.Topology.K = env.size.closK
	spec.Run.DurationNs = env.size.closHorizon
	return spec, nil
}

// closSetup is Build + Predict, as a user pays it. Traced, the same work is
// done through the exported constructors Build calls, one span each, and
// handed to Build as overrides.
func closSetup(env *env, sp spanRef) (any, error) {
	spec, err := closSpec(env)
	if err != nil {
		return nil, err
	}
	var ov *scenario.Overrides
	if tr := env.tr; tr != nil {
		s := tr.start("topology.build", sp)
		topo := topology.FatTree(spec.Topology.K, topology.DefaultLinkParams())
		s.end()
		s = tr.start("routing.spf", sp)
		tab := routing.NewSPF(topo)
		s.end()
		s = tr.start("cbd.all_pairs", sp)
		g := cbd.FromAllPairs(topo, tab, workload.EdgeRacks(topo))
		cyclic := g.HasCycle()
		s.count("channels", int64(g.NumChannels()))
		s.end()
		ov = &scenario.Overrides{Topo: topo, Table: tab, CBDCyclic: &cyclic}
	}
	s := env.tr.start("scenario.build", sp)
	sim, err := scenario.Build(spec, ov)
	s.end()
	if err != nil {
		return nil, err
	}
	s = env.tr.start("scenario.predict", sp)
	pred, err := sim.Predict()
	s.end()
	if err != nil {
		return nil, err
	}
	return &closState{sim, pred}, nil
}

func closRun(env *env, state any, sp spanRef) *outcome {
	cs := state.(*closState)
	out := &outcome{sim: map[string]int64{}, cells: 1}
	st, err := runPacket(env.tr, sp, cs.sim, true, env.tr != nil)
	out.events = st.events
	switch {
	case err != nil:
		out.failf("governed run stopped: %v", err)
	case st.drops != 0 || st.deadlocked:
		out.failf("drops=%d deadlocked=%v under GFC", st.drops, st.deadlocked)
	case st.delivered > cs.pred.MaxDelivered:
		out.failf("delivered %v above the analytic bound %v", st.delivered, cs.pred.MaxDelivered)
	}
	out.sim["events"] = int64(st.events)
	out.sim["delivered"] = int64(st.delivered)
	out.sim["drops"] = st.drops
	out.sim["flows_completed"] = int64(len(cs.sim.Gen.Completed))
	out.sim["max_delivered"] = int64(cs.pred.MaxDelivered)
	return out
}

// ---- fault_matrix ------------------------------------------------------

// matrixSetup is what RunFaultMatrix does before its first cell: the ring
// and one compiled plan per fault preset.
func matrixSetup(env *env, sp spanRef) (any, error) {
	s := env.tr.start("faults.compile", sp)
	defer s.end()
	topo := experiments.RingTopology(1)
	for _, name := range faults.PresetNames() {
		spec, err := faults.Preset(name)
		if err != nil {
			return nil, err
		}
		if _, err := spec.Compile(topo); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func matrixRun(env *env, _ any, sp spanRef) *outcome {
	out := &outcome{sim: map[string]int64{}}
	cfg := experiments.FaultMatrixConfig{
		Schemes: experiments.MatrixSchemes(), Seed: env.seed, Duration: env.size.matrixCell,
	}
	for m := 0; m < env.size.matrices; m++ {
		var cells []experiments.FaultCell
		var err error
		if env.tr == nil {
			cells, err = experiments.RunFaultMatrix(cfg)
		} else {
			// The same cells in the same order, one 1×1 matrix each.
			for _, sc := range experiments.FaultScenarios() {
				for _, fc := range cfg.Schemes {
					one := cfg
					one.Schemes, one.Scenarios = []experiments.FC{fc}, []string{sc}
					s := env.tr.start(fmt.Sprintf("cell[%d]", len(cells)), sp)
					c := env.tr.start("experiments.fault_cell", s)
					var got []experiments.FaultCell
					got, err = experiments.RunFaultMatrix(one)
					c.end()
					s.end()
					if err != nil {
						break
					}
					cells = append(cells, got...)
				}
			}
		}
		if err != nil {
			out.cells++
			out.failf("matrix %d: %v", m, err)
			continue
		}
		out.cells += len(cells)
		verifyMatrix(out, cells)
		for _, c := range cells {
			out.sim["delivered"] += int64(c.Delivered)
			out.sim["drops"] += c.Drops
			out.sim["violations"] += c.Violations
			out.sim["faults_injected"] += c.FaultsInjected
			if c.Deadlocked {
				out.sim["deadlocked"]++
			}
			if c.DCFITDeadlocked {
				out.sim["dcfit_deadlocked"]++
			}
		}
	}
	return out
}

// verifyMatrix holds the matrix to the paper's claim: both GFC rows stay live
// in every scenario — never deadlocked, every flow progressing — and PFC
// wedges when RESUME frames are lost. Losslessness is asserted wherever
// feedback arrives: under feedback-loss a dropped stage message leaves the
// upstream rate stale until the refresh, and buffer-based GFC does drop a few
// packets on some seeds (4 at seed 2), so there the GFC drop count is
// reported under sim.* instead of asserted.
func verifyMatrix(out *outcome, cells []experiments.FaultCell) {
	pfcWedged := false
	for _, c := range cells {
		if c.FC.IsGFC() {
			lossy := c.Drops != 0 || c.Violations != 0
			if c.Scenario == "feedback-loss" {
				out.sim["gfc_drops_feedback_loss"] += c.Drops
				lossy = false
			}
			if c.Deadlocked || c.MinFlow <= 0 || lossy {
				out.failf("%s under %s: deadlocked=%v drops=%d violations=%d min flow %v",
					c.FC, c.Scenario, c.Deadlocked, c.Drops, c.Violations, c.MinFlow)
			}
		}
		if c.FC == experiments.PFC && c.Scenario == "resume-loss" && c.Deadlocked {
			pfcWedged = true
		}
	}
	if !pfcWedged {
		out.failf("PFC did not deadlock under resume-loss")
	}
}

// ---- table1_sweep and table1_fluid -------------------------------------

// sweepState is a sweep's seed-derived input: the smallest scenario count
// whose first topologies hold exactly the wanted number of CBD-prone ones,
// so every seed simulates the same number of cells.
type sweepState struct {
	networks int
	prone    []int // job indices of the CBD-prone topologies
}

// sweepSetup generates the sweep's topologies from the seed, as RunSweep
// will again inside the timed phase: Σ experiments.GenerateScenario.
func sweepSetup(fluidBackend bool) func(*env, spanRef) (any, error) {
	return func(env *env, sp spanRef) (any, error) {
		want := env.size.sweepProne
		if fluidBackend {
			want = env.size.fluidProne
		}
		s := env.tr.start("experiments.generate_scan", sp)
		defer s.end()
		st := &sweepState{}
		// 7.5 % of k=4 topologies are prone, so this ends near want/0.075;
		// the cap only guards against a generator that never yields one.
		for i := 0; len(st.prone) < want; i++ {
			if i > 400*want {
				return nil, fmt.Errorf("no %d CBD-prone topologies in %d scenarios", want, i)
			}
			if _, _, prone := experiments.GenerateScenario(sweepK, sweepP, env.seed+int64(i)); prone {
				st.prone = append(st.prone, i)
			}
			st.networks = i + 1
		}
		s.count("generated", int64(st.networks))
		return st, nil
	}
}

func sweepConfig(env *env, st *sweepState, fluidBackend bool) experiments.SweepConfig {
	cfg := experiments.DefaultSweep(sweepK)
	cfg.Networks = st.networks
	cfg.Seed = env.seed
	cfg.Analytic = true
	cfg.Workers = Workers
	if fluidBackend {
		cfg.Backend = "fluid"
		cfg.Repeats = env.size.fluidReps
		cfg.Duration = env.size.fluidCell
	} else {
		cfg.Repeats = 1
		cfg.Duration = env.size.sweepCell
	}
	return cfg
}

var (
	sweepSchemes = []experiments.FC{experiments.PFC, experiments.GFCBuf, experiments.GFCTime}
	fluidSchemes = []experiments.FC{experiments.GFCBuf, experiments.GFCTime}
)

// cellOutcome mirrors the JSON shape RunSweep checkpoints per cell, so the
// traced replay's store_record spans write what the sweep writes.
type cellOutcome struct {
	Repeats []*experiments.ScenarioResult `json:"repeats"`
}

// sweepCounts are the exact statistics a sweep of one scheme yields; the
// traced replay must reproduce them.
type sweepCounts struct {
	prone, deadlockCases, analyticChecked, bandwidthN, flows int
	drops                                                    int64
	failures                                                 []string
}

func countsOf(r *experiments.SweepResult) sweepCounts {
	c := sweepCounts{
		prone: r.CBDProne, deadlockCases: r.DeadlockCases, analyticChecked: r.AnalyticChecked,
		bandwidthN: r.Bandwidth.Len(), flows: r.Slowdown.Len(), drops: r.Drops,
	}
	for _, f := range r.Failures {
		c.failures = append(c.failures, fmt.Sprintf("cell %d: %s", f.Job, f.Err))
	}
	return c
}

// tracedSweep replays RunSweep's job list through the same runner pool with
// a span at every layer boundary: generate, each repeat, and — when st is
// non-nil — the checkpoint record.
func tracedSweep(env *env, sp spanRef, fc experiments.FC, cfg experiments.SweepConfig, store *runner.Store) sweepCounts {
	tr := env.tr
	ss := tr.start("sweep["+slugOf(fc)+"]", sp)
	defer ss.end()
	name := "experiments.run_scenario"
	runRepeat := experiments.RunScenario
	if cfg.Backend == "fluid" {
		name, runRepeat = "fluid.run_net", experiments.RunScenarioFluid
	}
	jobs := make([]runner.Job[*cellOutcome], cfg.Networks)
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context) (*cellOutcome, error) {
			cs := tr.start(fmt.Sprintf("cell[%d]", i), ss)
			defer cs.end()
			s := tr.start("experiments.generate", cs)
			topo, tab, prone := experiments.GenerateScenario(cfg.K, cfg.FailureProb, cfg.Seed+int64(i))
			s.end()
			// A topology that is not CBD-prone is never simulated, but it is
			// still a recorded cell (a null outcome), as in RunSweep.
			var co *cellOutcome
			if prone {
				co = &cellOutcome{}
				for r := 0; r < cfg.Repeats; r++ {
					s = tr.start(name, cs)
					res, err := runRepeat(ctx, topo, tab, fc, cfg, cfg.Seed*1000+int64(i*cfg.Repeats+r))
					s.end()
					if err != nil {
						return nil, fmt.Errorf("repeat %d: %w", r, err)
					}
					co.Repeats = append(co.Repeats, res)
				}
			}
			if store != nil {
				s = tr.start("runner.store_record", cs)
				err := store.Record(i, cfg.Seed+int64(i), co, nil, nil)
				s.end()
				if err != nil {
					return nil, err
				}
			}
			return co, nil
		}
	}
	var c sweepCounts
	for job, jr := range runner.RunWith(context.Background(), jobs, runner.Options[*cellOutcome]{Workers: cfg.Workers}) {
		if jr.Err != nil {
			c.failures = append(c.failures, fmt.Sprintf("cell %d: %v", job, jr.Err))
			continue
		}
		if jr.Value == nil {
			continue
		}
		c.prone++
		dead := false
		for _, res := range jr.Value.Repeats {
			c.drops += res.Drops
			if res.Analytic != nil {
				c.analyticChecked++
			}
			if res.Deadlocked {
				dead = true
			} else {
				c.bandwidthN++
				c.flows += len(res.Slowdowns)
			}
		}
		if dead {
			c.deadlockCases++
		}
	}
	ss.count("cells", int64(c.prone*cfg.Repeats))
	return c
}

// recordSweep folds one scheme's counts into the outcome and holds them to
// the paper's claims.
func recordSweep(out *outcome, fc experiments.FC, c sweepCounts, st *sweepState, repeats int) {
	slug := slugOf(fc)
	out.cells += len(st.prone) * repeats
	for _, f := range c.failures {
		out.failf("%s: quarantined %s", slug, f)
	}
	if c.prone != len(st.prone) {
		out.failf("%s: %d CBD-prone cells, the scan found %d", slug, c.prone, len(st.prone))
	}
	if c.analyticChecked != c.prone*repeats {
		out.failf("%s: %d of %d repeats passed the analytic checker", slug, c.analyticChecked, c.prone*repeats)
	}
	if fc.IsGFC() && (c.deadlockCases != 0 || c.drops != 0) {
		out.failf("%s: %d deadlock cases, %d drops under GFC", slug, c.deadlockCases, c.drops)
	}
	out.sim["networks"] = int64(st.networks)
	out.sim["prone."+slug] = int64(c.prone)
	out.sim["deadlock_cases."+slug] = int64(c.deadlockCases)
	out.sim["analytic_checked."+slug] = int64(c.analyticChecked)
	out.sim["deadlock_free_repeats."+slug] = int64(c.bandwidthN)
	out.sim["flows_completed."+slug] = int64(c.flows)
	out.sim["drops."+slug] = c.drops
}

// sweepRun is what a Table 1 user runs: each scheme swept onto a fresh
// checkpoint, then the same three sweeps again on the same checkpoints,
// which must replay every cell bit for bit without recording a new one.
func sweepRun(env *env, state any, sp spanRef) *outcome {
	st := state.(*sweepState)
	out := &outcome{sim: map[string]int64{}}
	cfg := sweepConfig(env, st, false)
	ctx := context.Background()
	path := func(fc experiments.FC) string {
		return filepath.Join(env.dir, "table1_sweep-"+slugOf(fc)+".jsonl")
	}
	firsts := make([]*experiments.SweepResult, len(sweepSchemes))
	counts := make([]sweepCounts, len(sweepSchemes))
	for i, fc := range sweepSchemes {
		cfg.Checkpoint = path(fc)
		if err := os.Remove(cfg.Checkpoint); err != nil && !os.IsNotExist(err) {
			out.failf("%s: %v", slugOf(fc), err)
			continue
		}
		if env.tr == nil {
			res, err := experiments.RunSweep(ctx, fc, cfg)
			if err != nil {
				out.failf("%s: %v", slugOf(fc), err)
				continue
			}
			firsts[i], counts[i] = res, countsOf(res)
		} else {
			store, err := runner.OpenStore(cfg.Checkpoint, experiments.SweepKey(fc, cfg))
			if err != nil {
				out.failf("%s: %v", slugOf(fc), err)
				continue
			}
			counts[i] = tracedSweep(env, sp, fc, cfg, store)
			if err := store.Close(); err != nil {
				out.failf("%s: %v", slugOf(fc), err)
			}
		}
		recordSweep(out, fc, counts[i], st, cfg.Repeats)
	}
	for i, fc := range sweepSchemes {
		cfg.Checkpoint = path(fc)
		before := fileSize(cfg.Checkpoint)
		s := env.tr.start("sweep_replay["+slugOf(fc)+"]", sp)
		again, err := experiments.RunSweep(ctx, fc, cfg)
		s.end()
		switch {
		case err != nil:
			out.failf("%s replay: %v", slugOf(fc), err)
		case fileSize(cfg.Checkpoint) != before:
			out.failf("%s replay: the checkpoint grew, so cells were simulated again", slugOf(fc))
		case !reflect.DeepEqual(countsOf(again), counts[i]),
			firsts[i] != nil && !reflect.DeepEqual(again, firsts[i]):
			out.failf("%s replay: the replayed result differs from the computed one", slugOf(fc))
		}
	}
	return out
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return fi.Size()
}

// fluidRun sweeps the two schemes the fluid backend supports; fluid.RunNet
// does almost all the work and the packet engine none.
func fluidRun(env *env, state any, sp spanRef) *outcome {
	st := state.(*sweepState)
	out := &outcome{sim: map[string]int64{}}
	cfg := sweepConfig(env, st, true)
	for _, fc := range fluidSchemes {
		var c sweepCounts
		if env.tr == nil {
			res, err := experiments.RunSweep(context.Background(), fc, cfg)
			if err != nil {
				out.failf("%s: %v", slugOf(fc), err)
				continue
			}
			c = countsOf(res)
		} else {
			c = tracedSweep(env, sp, fc, cfg, nil)
		}
		recordSweep(out, fc, c, st, cfg.Repeats)
	}
	return out
}

// fluidCheck measures fluid_hw_gap_band outside the timed phase: over the
// first CBD-prone cells of each scheme, how far the fluid solver's switch
// high-water mark sits from its packet twin's, in units of fluid.Band — the
// tolerance band the adaptive-fidelity sweeps triage with. Both twins run
// under the analytic checker, which is the pass/fail part; the gap itself is
// reported, not asserted (time-based GFC sits 1–3 bands under its packet
// twin on this slice).
func fluidCheck(env *env) (int, []string, map[string]float64) {
	ctx := context.Background()
	cfg := sweepConfig(env, &sweepState{}, true)
	band := fluid.Band(topology.DefaultLinkParams().Capacity, 1500*units.Byte)
	var fails []string
	attempted := 0
	gap := 0.0
	for i, found := 0, 0; found < env.size.gapCells; i++ {
		topo, tab, prone := experiments.GenerateScenario(sweepK, sweepP, env.seed+int64(i))
		if !prone {
			continue
		}
		found++
		repeatSeed := cfg.Seed*1000 + int64(i*cfg.Repeats)
		for _, fc := range fluidSchemes {
			attempted += 2
			fl, err := experiments.RunScenarioFluid(ctx, topo, tab, fc, cfg, repeatSeed)
			if err != nil {
				fails = append(fails, fmt.Sprintf("gap twin %s cell %d (fluid): %v", slugOf(fc), i, err))
				continue
			}
			pk, err := experiments.RunScenario(ctx, topo, tab, fc, cfg, repeatSeed)
			if err != nil {
				fails = append(fails, fmt.Sprintf("gap twin %s cell %d (packet): %v", slugOf(fc), i, err))
				continue
			}
			gap = math.Max(gap, math.Abs(float64(fl.HighWater-pk.HighWater))/float64(band))
		}
	}
	return attempted, fails, map[string]float64{"fluid_hw_gap_band": gap}
}

// slugOf is the lower-case name of a scheme inside metric and count names.
func slugOf(fc scenario.FC) string {
	switch fc {
	case scenario.PFC:
		return "pfc"
	case scenario.CBFC:
		return "cbfc"
	case scenario.GFCBuf:
		return "gfcbuf"
	case scenario.GFCTime:
		return "gfctime"
	case scenario.BFC:
		return "bfc"
	}
	return string(fc)
}
