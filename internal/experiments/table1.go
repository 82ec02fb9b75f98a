package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/runner"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// SweepConfig parameterises the §6.2.3 large-scale simulations (Table 1 and
// Figures 16–18): random link failures on fat-trees, empirical enterprise
// traffic, deadlock detection.
type SweepConfig struct {
	K           int     // fat-tree arity (paper: 4, 8, 16)
	Networks    int     // random failure scenarios to generate (paper: 10000)
	Repeats     int     // workload repetitions per scenario (paper: 100)
	FailureProb float64 // per-link failure probability (paper: 0.05)
	Duration    units.Time
	Seed        int64
	// FlowsPerHost scales workload intensity (default 1, the paper's).
	// Budget-limited sweeps use 2–4 to compensate for running far fewer
	// repeats than the paper's 100 per topology.
	FlowsPerHost int
	// Workers is the number of scenarios simulated concurrently.
	// 0 means runtime.GOMAXPROCS(0). Every scenario is share-nothing and
	// seeded from its index, so the aggregate result is bit-identical
	// for every worker count.
	Workers int
	// Budget bounds every repeat's simulation via the netsim run governor
	// (event budget, wall clock, stall watchdog). The zero value imposes
	// no bounds; a budget-blown repeat quarantines its scenario cell
	// instead of wedging the sweep.
	Budget netsim.Budget
	// Checkpoint, when non-empty, is the path of a JSONL checkpoint file:
	// cells are recorded as they complete and a resumed sweep (same
	// SweepKey) replays them instead of recomputing.
	Checkpoint string
	// Analytic enforces the network-wide analytic checker on every repeat
	// (internal/analytic): each run is verified against its topology's
	// occupancy envelope, throughput band and losslessness/progress
	// verdict, the verdict is recorded in the cell's ScenarioResults, and
	// a violated repeat quarantines its cell. Part of the SweepKey: runs
	// with and without the checker do not share checkpoints.
	Analytic bool
	// Backend selects the simulation engine of every repeat: "" or "packet"
	// runs on netsim; "fluid" integrates on the network-of-queues solver
	// (the scheme must pass fluidSweepSupports). Part of the SweepKey (""
	// keyed as packet): sweeps on different engines never share a
	// checkpoint.
	Backend string
}

// supported fat-tree census: the arities the topology builder and its pinned
// validation tests cover. The paper sweeps 4, 8 and 16; anything even up to
// 32 (32768 hosts) stays within the validated construction.
const (
	minSweepK = 4
	maxSweepK = 32
)

// Validate rejects a sweep configuration that would otherwise fail deep
// inside the run (or silently compute nothing).
func (cfg SweepConfig) Validate() error {
	if cfg.K < minSweepK || cfg.K > maxSweepK || cfg.K%2 != 0 {
		return fmt.Errorf("table1: K = %d outside the supported fat-tree census (even, %d ≤ K ≤ %d)",
			cfg.K, minSweepK, maxSweepK)
	}
	if cfg.Networks <= 0 {
		return fmt.Errorf("table1: Networks = %d; need at least one failure scenario", cfg.Networks)
	}
	if cfg.Repeats <= 0 {
		return fmt.Errorf("table1: Repeats = %d; need at least one workload repetition per scenario", cfg.Repeats)
	}
	if cfg.FailureProb < 0 || cfg.FailureProb > 1 {
		return fmt.Errorf("table1: FailureProb = %g outside [0, 1]", cfg.FailureProb)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("table1: Duration = %d; need a positive run horizon", cfg.Duration)
	}
	switch cfg.Backend {
	case "", "packet", "fluid":
	default:
		return fmt.Errorf("table1: unknown backend %q (want packet or fluid)", cfg.Backend)
	}
	return nil
}

// DefaultSweep returns a CI-sized sweep for arity k: the paper's failure
// probability with reduced scenario/repeat counts, compensated by a 4×
// workload intensity so deadlock occurrence stays observable (documented in
// EXPERIMENTS.md; the paper runs 10000 scenarios × 100 repeats at 1 flow
// per host).
func DefaultSweep(k int) SweepConfig {
	return SweepConfig{
		K:            k,
		Networks:     200,
		Repeats:      2,
		FailureProb:  0.05,
		Duration:     25 * units.Millisecond,
		Seed:         1,
		FlowsPerHost: 4,
	}
}

// ScenarioResult is the outcome of one (topology, scheme, repeat) run.
type ScenarioResult struct {
	Deadlocked bool
	DeadlockAt units.Time
	// HostBandwidth is the mean per-host goodput (Figure 16).
	HostBandwidth units.Rate
	// Slowdowns collects per-completed-flow slowdown samples (Fig 17).
	Slowdowns []float64
	Drops     int64
	// Analytic is the network-wide analytic verdict of the repeat, present
	// when the sweep ran with SweepConfig.Analytic. It round-trips through
	// the checkpoint store like every other field, so resumed and replayed
	// cells carry the identical verdict.
	Analytic *AnalyticVerdict `json:"analytic,omitempty"`
	// HighWater is the repeat's maximum switch-channel occupancy: what the
	// two engines are compared on, cell by cell, in units of fluid.Band.
	HighWater units.Size `json:"high_water,omitempty"`
	// Backend records which engine produced the repeat: "packet" (netsim)
	// or "fluid" (the network-of-queues solver).
	Backend string `json:"backend,omitempty"`
}

// AnalyticVerdict records what the analytic model predicted for one repeat
// and the aggregates it was checked against (the check itself passed — a
// violated repeat quarantines its cell instead of producing a result).
type AnalyticVerdict struct {
	DeadlockFree bool `json:"deadlock_free"`
	Lossless     bool `json:"lossless"`
	// MaxOccupancy is the predicted per-channel envelope; HighWater the
	// observed switch-channel maximum (HighWater ≤ MaxOccupancy held).
	MaxOccupancy units.Size `json:"max_occupancy"`
	HighWater    units.Size `json:"high_water"`
	// MaxDelivered is the aggregate throughput bound; Delivered the
	// observed total (Delivered ≤ MaxDelivered held).
	MaxDelivered units.Size `json:"max_delivered"`
	Delivered    units.Size `json:"delivered"`
}

// SweepResult aggregates one scheme over one scale.
type SweepResult struct {
	FC FC
	K  int
	// CBDProne is how many generated scenarios could form a CBD (the
	// pre-filter of §6.2.3); only these are simulated.
	CBDProne int
	// DeadlockCases counts CBD-prone scenarios where any repeat
	// deadlocked — a Table 1 cell.
	DeadlockCases int
	// Bandwidth and Slowdown aggregate over deadlock-free runs
	// (Figures 16a/17a) and over all runs (16b/17b handled by caller).
	Bandwidth stats.CDF
	Slowdown  stats.CDF
	Drops     int64
	// AnalyticChecked counts repeats that carried (and passed) the
	// network-wide analytic check — Networks × Repeats of the CBD-prone
	// cells when SweepConfig.Analytic is on and nothing was quarantined.
	AnalyticChecked int
	// Failures lists the quarantined cells (budget-blown or panicked
	// scenarios, under any scheme the cell ran), in job order. The sweep's
	// aggregates cover the surviving cells; a non-empty list means the
	// sweep is incomplete and callers should exit non-zero after reporting
	// it.
	Failures []CellFailure
	// Salvage, when non-nil, reports checkpoint lines the resume had to
	// discard (corrupt or torn); the dropped cells were recomputed.
	Salvage *runner.Salvage
}

// CellFailure is one quarantined sweep cell: the scenario job index, the
// rendered error, and — when the failure carried a flight-recorder
// snapshot — its report.
type CellFailure struct {
	Job    int    `json:"job"`
	Err    string `json:"err"`
	Report string `json:"report,omitempty"`
}

// FailureSummary renders the quarantined cells of a sweep as a
// deterministic, job-ordered report.
func (s *SweepResult) FailureSummary() string {
	if len(s.Failures) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d sweep cells quarantined (k=%d):\n", len(s.Failures), s.K)
	for _, f := range s.Failures {
		fmt.Fprintf(&b, "  cell %d: %s\n", f.Job, f.Err)
		if f.Report != "" {
			for _, line := range strings.Split(strings.TrimRight(f.Report, "\n"), "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	}
	return b.String()
}

// ResilienceSummary renders what the self-healing side did for this sweep —
// the checkpoint lines a resume had to discard — as a deterministic report.
// Empty when the checkpoint was clean.
func (s *SweepResult) ResilienceSummary() string {
	sv := s.Salvage
	if sv == nil {
		return ""
	}
	return fmt.Sprintf("checkpoint salvage: dropped %d corrupt line(s) (%s); the cells were recomputed\n",
		sv.Dropped, sv.Reason)
}

// drawRNGs holds the generators GenerateScenario reseeds. A fresh source is a
// 5 KB state per draw; Seed resets a used one to the stream a fresh source of
// that seed yields, so a draw depends on its seed alone.
var drawRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// GenerateScenario draws the i-th random failure scenario of a sweep: a
// k-ary fat-tree with each fabric link failed with probability p. It reports
// whether the union of every shortest path between inter-rack hosts
// (cbd.FromAllPairs) holds a CBD — the paths generated flows may take under
// any ECMP key, so a scenario filtered out as CBD-free cannot form one in the
// run — and returns the failed topology and its routing table when it does;
// both are nil when it does not. The draw is a failure mask
// (topology.DrawFatTreeFailures) and the failed-link census
// (cbd.FatTreeMask.HasValley) answers first: a fat-tree without a valley pair
// is CBD-free, and only the rest pay for building the tree, its table and
// the all-pairs graph.
func GenerateScenario(k int, p float64, seed int64) (*topology.Topology, *routing.Table, bool) {
	rng := drawRNGs.Get().(*rand.Rand)
	rng.Seed(seed)
	live := cbd.NewFatTreeMask(k)
	topology.DrawFatTreeFailures(k, rng, p, live.Fail)
	drawRNGs.Put(rng)
	if !live.HasValley() {
		return nil, nil, false
	}
	topo := topology.FatTree(k, topology.DefaultLinkParams())
	topology.FatTreeLinks(k, func(l topology.FatTreeLink) { topo.Link(l.ID).Failed = !live.Live(l) })
	tab := routing.NewSPF(topo)
	if !cbd.FromAllPairs(topo, tab, workload.EdgeRacks(topo)).HasCycle() {
		return nil, nil, false
	}
	return topo, tab, true
}

// sweepSpec is the per-repeat Spec both backends compile: the registered
// sweep cell (scenario.SweepCell) at the sweep's scale, intensity and horizon,
// seeded by the repeat, with topo's failed links named in link-ID order in
// fail_links. Built with no Overrides, it builds the network, routes and
// workload the repeat runs; topo is nil only for a probe on the healthy tree.
func sweepSpec(fc FC, cfg SweepConfig, topo *topology.Topology, repeatSeed int64) scenario.Spec {
	spec := scenario.SweepCell(fc, cfg.K, cfg.FlowsPerHost, repeatSeed)
	spec.Run.DurationNs = cfg.Duration
	spec.Run.Analytic = cfg.Analytic
	if topo == nil {
		return spec
	}
	for i := range topo.NumLinks() {
		if l := topo.Link(topology.LinkID(i)); l.Failed {
			spec.Topology.FailLinks = append(spec.Topology.FailLinks, topo.Node(l.A).Name+"-"+topo.Node(l.B).Name)
		}
	}
	return spec
}

// repeatOverrides are the runtime hooks every sweep repeat builds with: a
// fresh registry, and caches of what the repeat's Spec declares. The prebuilt
// topology and routing table are the ones its fail_links build (sweeps reuse
// them across repeats, so the Spec's topology section is validated, not
// built), and the CBD verdict is cyclic: every simulated cell passed the
// pre-filter, so the analytic predictor need not recompute the all-pairs
// graph per repeat.
func repeatOverrides(topo *topology.Topology, tab *routing.Table) *scenario.Overrides {
	cyclic := true
	return &scenario.Overrides{
		Topo: topo, Table: tab, Metrics: metrics.New(metrics.Options{}), CBDCyclic: &cyclic,
	}
}

// runRepeat runs a built repeat on either backend under the governor (ctx
// cancellation and cfg.Budget; a trip surfaces as a *netsim.RunError) and
// translates its scenario.Result into sweep terms.
func runRepeat(ctx context.Context, r scenario.Runner, topo *topology.Topology, cfg SweepConfig) (*ScenarioResult, error) {
	run, err := r.RunBounded(ctx, cfg.Budget)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{
		Backend:       run.Backend,
		Deadlocked:    run.Deadlocked,
		DeadlockAt:    run.DeadlockAt,
		Drops:         run.Drops,
		HighWater:     run.HighWater,
		HostBandwidth: units.RateOf(run.Delivered, cfg.Duration) / units.Rate(len(topo.Hosts())),
	}
	if cfg.Analytic {
		if run.Analytic.Err != nil {
			return nil, fmt.Errorf("analytic check: %w", run.Analytic.Err)
		}
		pred := run.Analytic.Prediction
		res.Analytic = &AnalyticVerdict{
			DeadlockFree: pred.DeadlockFree,
			Lossless:     pred.Lossless,
			MaxOccupancy: pred.MaxOccupancy,
			HighWater:    run.HighWater,
			MaxDelivered: pred.MaxDelivered,
			Delivered:    run.Delivered,
		}
	}
	return res, nil
}

// RunScenario executes one workload repetition on a prepared scenario at
// packet fidelity, adding what only the packet engine observes: per-flow
// slowdowns.
func RunScenario(ctx context.Context, topo *topology.Topology, tab *routing.Table, fc FC, cfg SweepConfig, repeatSeed int64) (*ScenarioResult, error) {
	sim, err := scenario.Build(sweepSpec(fc, cfg, topo, repeatSeed), repeatOverrides(topo, tab))
	if err != nil {
		return nil, err
	}
	defer sim.Close() // the next repeat carves its packets from this one's storage
	res, err := runRepeat(ctx, sim, topo, cfg)
	if err != nil {
		return nil, err
	}
	if n := len(sim.Gen.Completed); n > 0 {
		res.Slowdowns = make([]float64, 0, n) // nil when none: the checkpoint records null
	}
	for _, f := range sim.Gen.Completed {
		ideal := routing.PathLatency(f.Path, 1500*units.Byte) +
			units.TransmissionTime(f.Size, 10*units.Gbps)
		res.Slowdowns = append(res.Slowdowns, stats.Slowdown(f.FCT(), ideal))
	}
	return res, nil
}

// fluidSweepBackend compiles sweep repeats for the fluid solver. The
// generator stand-in is enabled: sweep workloads are random enterprise
// traffic, and the stand-in's persistent saturating flows upper-bound the
// congestion the generator can create.
var fluidSweepBackend = scenario.FluidBackend{RenderGenerator: true}

// buildFluidRepeat compiles one repeat for the fluid solver. It integrates
// at 2 µs: the sweep dynamics (τ ≥ 12 µs) are far slower.
func buildFluidRepeat(topo *topology.Topology, tab *routing.Table, fc FC, cfg SweepConfig, repeatSeed int64) (scenario.Runner, error) {
	spec := sweepSpec(fc, cfg, topo, repeatSeed)
	spec.Sim.FluidStepNs = 2 * units.Microsecond
	return fluidSweepBackend.Build(spec, repeatOverrides(topo, tab))
}

// RunScenarioFluid executes one workload repetition on the fluid backend —
// the counterpart of RunScenario. The scheme must be fluid-representable
// (RunSweep pre-checks this for fluid sweeps). Slowdown samples stay empty:
// the stand-in's flows are unbounded, so there are no completion times.
func RunScenarioFluid(ctx context.Context, topo *topology.Topology, tab *routing.Table, fc FC, cfg SweepConfig, repeatSeed int64) (*ScenarioResult, error) {
	r, err := buildFluidRepeat(topo, tab, fc, cfg, repeatSeed)
	if err != nil {
		return nil, err
	}
	return runRepeat(ctx, r, topo, cfg)
}

// scenarioOutcome is one scenario's worth of sweep data: the per-repeat
// results of every scheme, scheme-major and in repeat order within a scheme,
// so the aggregation fold reproduces the serial loop exactly. A nil outcome
// marks a scenario that was not CBD-prone. The fields are exported (and
// JSON-tagged) because outcomes round-trip through the checkpoint store; the
// JSON float encoding is exact, so a replayed outcome aggregates
// bit-identically to a computed one.
type scenarioOutcome struct {
	Repeats []*ScenarioResult `json:"repeats"`
}

// SweepKey identifies the result-determining configuration of a sweep of one
// scheme — the spec hash written into every checkpoint entry. Two sweeps
// share a key iff their job lists compute the same results, which is what
// makes a recorded cell safe to replay. Every result-determining field is
// rendered unconditionally; runtime knobs (workers, budgets, checkpoint path)
// deliberately stay out: they change how cells run, not what they
// compute. TestSweepKeyCoversEveryField holds every SweepConfig field to one
// side or the other.
func SweepKey(fc FC, cfg SweepConfig) string { return sweepKey([]FC{fc}, cfg) }

// sweepKey is the key of a sweep of the schemes fcs: fc= names the list in
// order, so a one-scheme list renders SweepKey's string and replays its
// checkpoints.
func sweepKey(fcs []FC, cfg SweepConfig) string {
	backend := cfg.Backend
	if backend == "" {
		backend = "packet"
	}
	return fmt.Sprintf("table1/fc=%s/k=%d/n=%d/r=%d/p=%g/d=%d/seed=%d/fph=%d/analytic=%t/backend=%s",
		schemeList(fcs), cfg.K, cfg.Networks, cfg.Repeats, cfg.FailureProb,
		int64(cfg.Duration), cfg.Seed, cfg.FlowsPerHost,
		cfg.Analytic, backend)
}

// schemeList renders schemes comma-joined, in order.
func schemeList(fcs []FC) string {
	names := make([]string, len(fcs))
	for i, fc := range fcs {
		names[i] = string(fc)
	}
	return strings.Join(names, ",")
}

// fluidSweepSupports reports why a fluid sweep of fc cannot run, nil when it
// can. The scheme alone decides, so one probe repeat (on the unfailed tree the
// spec declares, under the cyclic-CBD verdict every simulated cell carries by
// the pre-filter) answers for the sweep: the fluid backend must be able to
// represent the scheme and to decide its deadlocks (scenario.FluidBackend),
// or the sweep would count no Table 1 cell.
func fluidSweepSupports(fc FC) error {
	_, err := buildFluidRepeat(nil, nil, fc, SweepConfig{K: minSweepK, Duration: units.Millisecond}, 0)
	return err
}

// seedOf is the base RNG seed of scenario i, recorded in checkpoint entries.
func (cfg SweepConfig) seedOf(i int) int64 { return cfg.Seed + int64(i) }

// repeatSeed is the workload seed of repeat r of scenario job.
func (cfg SweepConfig) repeatSeed(job, r int) int64 { return cfg.Seed*1000 + int64(job*cfg.Repeats+r) }

// runCell computes sweep cell job: generate the topology, skip it (nil
// outcome) unless CBD-prone, then run every scheme's repeats on it, stored
// scheme-major (scheme s, repeat r at s*cfg.Repeats + r). Repeat seeds are a
// function of (sweep seed, job, repeat) alone, so every scheme sees the same
// workloads and a resume that recomputes the cell sees them again. A failed
// repeat under any scheme fails the cell.
func runCell(ctx context.Context, schemes []FC, cfg SweepConfig, job int) (*scenarioOutcome, error) {
	topo, tab, prone := GenerateScenario(cfg.K, cfg.FailureProb, cfg.seedOf(job))
	if !prone {
		return nil, nil
	}
	repeat := RunScenario
	if cfg.Backend == "fluid" {
		repeat = RunScenarioFluid
	}
	sc := &scenarioOutcome{Repeats: make([]*ScenarioResult, 0, len(schemes)*cfg.Repeats)}
	for _, fc := range schemes {
		for r := 0; r < cfg.Repeats; r++ {
			res, err := repeat(ctx, topo, tab, fc, cfg, cfg.repeatSeed(job, r))
			if err != nil {
				return nil, fmt.Errorf("%s repeat %d: %w", fc, r, err)
			}
			sc.Repeats = append(sc.Repeats, res)
		}
	}
	return sc, nil
}

// RunSweep executes the Table 1 experiment for one scheme at one scale: the
// one-scheme case of the sweep `gfcsim -exp table1` runs, which puts every
// scheme on each generated network. Scenario generation depends on the seed
// alone, so every scheme meets the same topologies; whether the topologies
// PFC deadlocks on contain CBFC's is a measurement of the horizon (at 400 ms
// they do, at 50 ms the two sets are disjoint; EXPERIMENTS.md).
//
// Scenarios run concurrently on cfg.Workers goroutines; each one is an
// independent Network seeded purely from the scenario index, and outcomes
// are folded in scenario order, so the result is bit-identical for every
// worker count (including the serial Workers == 1 case).
//
// Resilience semantics: a failed cell (budget-blown, panicked) is
// quarantined into SweepResult.Failures and the sweep continues; with
// cfg.Checkpoint set, succeeded cells are recorded as they finish and a
// resumed sweep replays them. A quarantined cell is never recorded, so a
// resume recomputes it and reports it again or, under a larger budget,
// aggregates it. Cancelling ctx stops the sweep early and returns the
// partial aggregate alongside the context error — cancelled cells are
// neither aggregated, quarantined nor checkpointed, so a resume re-runs
// exactly those.
func RunSweep(ctx context.Context, fc FC, cfg SweepConfig) (*SweepResult, error) {
	out, err := runSweeps(ctx, []FC{fc}, cfg)
	if out == nil {
		return nil, err
	}
	return out[0], err
}

// runSweeps is RunSweep for every scheme of schemes at once: each cell is
// one generated network run under every scheme, recorded as one checkpoint
// entry under sweepKey(schemes, cfg), and folded into one result per scheme,
// in the order of schemes. The cell is the unit of quarantine: a cell that
// failed under any scheme is in every result's Failures and in no result's
// aggregate, so CBDProne is one number across the results.
func runSweeps(ctx context.Context, schemes []FC, cfg SweepConfig) ([]*SweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backend == "fluid" {
		// Fail fast rather than quarantining every cell: a pure-fluid
		// sweep of a scheme the solver cannot decide computes nothing.
		for _, fc := range schemes {
			if err := fluidSweepSupports(fc); err != nil {
				return nil, err
			}
		}
	}
	jobs := make([]runner.Job[*scenarioOutcome], cfg.Networks)
	for i := 0; i < cfg.Networks; i++ {
		i := i
		jobs[i] = func(ctx context.Context) (*scenarioOutcome, error) {
			return runCell(ctx, schemes, cfg, i)
		}
	}
	opts := runner.Options[*scenarioOutcome]{
		Workers: cfg.Workers,
		Seed:    cfg.seedOf,
	}
	out := make([]*SweepResult, len(schemes))
	for s, fc := range schemes {
		out[s] = &SweepResult{FC: fc, K: cfg.K}
	}
	if cfg.Checkpoint != "" {
		st, err := runner.OpenStore(cfg.Checkpoint, sweepKey(schemes, cfg))
		if err != nil {
			return nil, fmt.Errorf("opening checkpoint: %w", err)
		}
		defer st.Close()
		opts.Checkpoint = st
		if sv := st.Salvage(); sv.Dropped > 0 {
			for _, res := range out {
				res.Salvage = &sv
			}
		}
	}
	results := runner.RunWith(ctx, jobs, opts)

	var prone []*scenarioOutcome
	for job, jr := range results {
		if err := jr.Err; err != nil {
			if errors.Is(err, context.Canceled) {
				continue // cut short, not a verdict: a resume re-runs it
			}
			f := CellFailure{Job: job, Err: err.Error()}
			var re *netsim.RunError
			if errors.As(err, &re) && re.Snapshot != nil {
				f.Report = re.Snapshot.String()
			}
			for _, res := range out {
				res.Failures = append(res.Failures, f)
			}
			continue
		}
		if jr.Value != nil { // nil: not CBD-prone, never simulated
			prone = append(prone, jr.Value)
		}
	}
	for s, res := range out {
		repeats := func(sc *scenarioOutcome) []*ScenarioResult {
			return sc.Repeats[s*cfg.Repeats : (s+1)*cfg.Repeats]
		}
		// Size the slowdown CDF once: it holds every completed flow of
		// every deadlock-free repeat, hundreds per cell.
		n := 0
		for _, sc := range prone {
			for _, r := range repeats(sc) {
				if !r.Deadlocked {
					n += len(r.Slowdowns)
				}
			}
		}
		res.Slowdown.Grow(n)
		for _, sc := range prone {
			res.add(repeats(sc))
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// add folds one CBD-prone cell's repeats of the result's scheme.
func (s *SweepResult) add(repeats []*ScenarioResult) {
	s.CBDProne++
	dead := false
	for _, res := range repeats {
		s.Drops += res.Drops
		if res.Analytic != nil {
			s.AnalyticChecked++
		}
		if res.Deadlocked {
			dead = true
		} else {
			s.Bandwidth.Add(float64(res.HostBandwidth))
			for _, sd := range res.Slowdowns {
				s.Slowdown.Add(sd)
			}
		}
	}
	if dead {
		s.DeadlockCases++
	}
}
