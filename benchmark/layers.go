package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/eventsim"
	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/flowcontrol"
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

// LayerValue is one per-layer metric. Timings over many calls carry the
// sample count and the highest percentile with at least ten samples beyond
// it; Value is then the median.
type LayerValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// layerSet collects the per-layer metrics of one traced run.
type layerSet map[string]LayerValue

func (l layerSet) set(name string, v float64) { l[name] = LayerValue{Value: v} }

// timing records the median of samples (and the tail the sample supports).
func (l layerSet) timing(name string, samples []float64) {
	v := LayerValue{Value: median(samples), N: len(samples)}
	v.TailPct, v.Tail, _ = tail(samples)
	l[name] = v
}

// measureLayers runs the per-layer ladder: every layer of the simulator
// timed from outside through its exported calls, at sizes small enough that
// one traced run can afford all of it. The ladder does not depend on which
// workload the process measured.
func measureLayers(e *env) (map[string]LayerValue, error) {
	l := layerSet{}
	steps := []func(*env, layerSet) error{
		layerEventsim, layerNetsim, layerTaps, layerFlowcontrol,
		layerExperiments, layerFluid, layerRunner,
	}
	for _, step := range steps {
		if err := step(e, l); err != nil {
			return nil, err
		}
	}
	for _, d := range perLayer {
		v := l[d.Name]
		v.Unit = d.Unit
		l[d.Name] = v
	}
	return l, nil
}

// sinceNs times fn and returns nanoseconds.
func sinceNs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds())
}

// times calls fn n times and returns each call's duration in unit (a
// divisor of nanoseconds: 1e3 for µs, 1e6 for ms).
func times(n int, unit float64, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = sinceNs(fn) / unit
	}
	return out
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// ---- eventsim ----------------------------------------------------------

// holdNs is the classic hold model on a bare engine: a standing population
// of depth events, then Step + Schedule pairs that keep it standing.
func holdNs(depth, ops int) float64 {
	eng := eventsim.New()
	fn := func() {}
	// Increments are precomputed so the loop times the engine, not the
	// generator; splitmix-style mixing keeps them well spread.
	var incr [4096]units.Time
	x := uint64(depth)
	for i := range incr {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		incr[i] = units.Time(1 + (z>>33)%1_000_000)
	}
	for i := 0; i < depth; i++ {
		eng.Schedule(incr[i&4095], fn)
	}
	ns := sinceNs(func() {
		for i := 0; i < ops; i++ {
			eng.Step()
			eng.Schedule(eng.Now()+incr[i&4095], fn)
		}
	})
	return ns / float64(ops)
}

func layerEventsim(env *env, l layerSet) error {
	sz := env.size
	l.set("eventsim.hold_ns_d16", holdNs(16, sz.holdOps))
	l.set("eventsim.hold_ns_d4k", holdNs(4096, sz.holdOps))
	l.set("eventsim.hold_ns_d1m", holdNs(sz.holdDeep, sz.holdOps))

	// Schedule + Cancel over a shallow standing population: what pacer and
	// rate-limiter re-arms do.
	eng := eventsim.New()
	fn := func() {}
	for i := 0; i < 16; i++ {
		eng.Schedule(units.Time(1000+i), fn)
	}
	ns := sinceNs(func() {
		for i := 0; i < sz.holdOps; i++ {
			eng.Cancel(eng.Schedule(units.Time(500+i&255), fn))
		}
	})
	l.set("eventsim.cancel_ns", ns/float64(sz.holdOps))
	return nil
}

// ---- netsim ------------------------------------------------------------

// rung is one bare packet run of the ladder.
type rung struct {
	sim        *scenario.Sim
	nsPerEvent float64
	allocs     float64 // mallocs per event
	stats      packetStats
}

// bareRun builds spec and runs it to its horizon in slices through
// Network.Run, ungoverned, counting events and heap allocations.
func bareRun(spec scenario.Spec, ov *scenario.Overrides) (rung, error) {
	sim, err := scenario.Build(spec, ov)
	if err != nil {
		return rung{}, err
	}
	runtime.GC()
	m0 := mallocs()
	var st packetStats
	ns := sinceNs(func() { st, err = runPacket(nil, spanRef{}, sim, false, true) })
	if err != nil {
		return rung{}, err
	}
	ev := float64(st.events)
	return rung{sim, ns / ev, float64(mallocs()-m0) / ev, st}, nil
}

func pendingOf(l layerSet, suffix string, st packetStats) {
	xs := make([]float64, len(st.pending))
	for i, p := range st.pending {
		xs[i] = float64(p)
	}
	_, hi := minMax(xs)
	l.set("eventsim.pending_p50."+suffix, median(xs))
	l.set("eventsim.pending_max."+suffix, hi)
}

func layerNetsim(env *env, l layerSet) error {
	// Ring: the workload's spec at the ladder horizon.
	spec, err := ringSpec(env, scenario.GFCBuf, env.size.layerRing)
	if err != nil {
		return err
	}
	ring, err := bareRun(spec, nil)
	if err != nil {
		return err
	}
	l.set("netsim.ns_per_event.ring", ring.nsPerEvent)
	l.set("netsim.allocs_per_event.ring", ring.allocs)
	pendingOf(l, "ring", ring.stats)
	l.set("netsim.handler_ns.ring", ring.nsPerEvent-l["eventsim.hold_ns_d16"].Value)
	l.timing("deadlock.check_us.ring", times(200, 1e3, func() { ring.sim.Detector.Check() }))

	spec.Run.Detector = "dcfit"
	dc, err := bareRun(spec, nil)
	if err != nil {
		return err
	}
	l.timing("deadlock.dcfit_check_us.ring", times(200, 1e3, func() { dc.sim.DCFIT.Check() }))

	// clos128: the middle rung.
	spec, ok := scenario.Get("clos128-gfcbuf")
	if !ok {
		return fmt.Errorf("scenario clos128-gfcbuf is not registered")
	}
	spec.Seed = env.seed
	spec.Run.DurationNs = env.size.clos128Dur
	mid, err := bareRun(spec, nil)
	if err != nil {
		return err
	}
	l.set("netsim.ns_per_event.clos128", mid.nsPerEvent)
	l.set("netsim.allocs_per_event.clos128", mid.allocs)

	// clos1024: the setup split, then the run.
	if spec, err = closSpec(env); err != nil {
		return err
	}
	k := spec.Topology.K
	var topo *topology.Topology
	l.timing("topology.fattree_ms.k16", times(5, 1e6, func() { topo = topology.FatTree(k, topology.DefaultLinkParams()) }))
	var tab *routing.Table
	l.timing("routing.spf_ms.k16", times(3, 1e6, func() { tab = routing.NewSPF(topo) }))
	var g *cbd.Graph
	l.timing("cbd.all_pairs_ms.k16", times(1, 1e6, func() {
		g = cbd.FromAllPairs(topo, tab, workload.EdgeRacks(topo))
		g.HasCycle()
	}))
	l.set("cbd.channels.k16", float64(g.NumChannels()))
	hosts := topo.Hosts()
	n := 0
	ns := sinceNs(func() {
		for i := 0; i < 20_000; i++ {
			src, dst := hosts[(i*7919)%len(hosts)], hosts[(i*104729+1)%len(hosts)]
			if src == dst {
				continue
			}
			if _, err := tab.Path(src, dst, uint64(i)); err == nil {
				n++
			}
		}
	})
	l.set("routing.path_ns", ns/float64(max(n, 1)))

	ov := &scenario.Overrides{Topo: topo, Table: tab}
	var buildErr error
	l.timing("scenario.build_ms.clos1024", times(3, 1e6, func() {
		if _, err := scenario.Build(spec, ov); err != nil {
			buildErr = err
		}
	}))
	if buildErr != nil {
		return buildErr
	}
	big, err := bareRun(spec, ov)
	if err != nil {
		return err
	}
	l.set("netsim.ns_per_event.clos1024", big.nsPerEvent)
	l.set("netsim.allocs_per_event.clos1024", big.allocs)
	pendingOf(l, "clos1024", big.stats)
	l.set("netsim.handler_ns.clos1024", big.nsPerEvent-l["eventsim.hold_ns_d4k"].Value)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.set("netsim.live_heap_mb.clos1024", float64(m.HeapAlloc)/1e6)
	l.set("workload.flows_started.clos1024", float64(len(big.sim.Net.Flows())))
	l.set("workload.flows_completed.clos1024", float64(len(big.sim.Gen.Completed)))
	// The horizon ends mid-traffic, so the finished network is a loaded one.
	l.timing("deadlock.check_us.k16", times(20, 1e3, func() { big.sim.Detector.Check() }))
	var predErr error
	l.timing("scenario.predict_ms.clos1024", times(1, 1e6, func() { _, predErr = big.sim.Predict() }))
	if predErr != nil {
		return predErr
	}

	// k=8 all-pairs CBD, the other point of the setup curve.
	t8 := topology.FatTree(8, topology.DefaultLinkParams())
	tab8 := routing.NewSPF(t8)
	l.timing("cbd.all_pairs_ms.k8", times(3, 1e6, func() { cbd.FromAllPairs(t8, tab8, workload.EdgeRacks(t8)).HasCycle() }))

	// analytic.Predict on one Table 1 cell (its CBD verdict is cached by
	// the first call).
	spec, ok = scenario.Get("sweep-cell-pfc")
	if !ok {
		return fmt.Errorf("scenario sweep-cell-pfc is not registered")
	}
	cell, err := scenario.Build(spec, nil)
	if err != nil {
		return err
	}
	if _, err := cell.Predict(); err != nil {
		return err
	}
	l.timing("analytic.predict_us.k4", times(1000, 1e3, func() { _, _ = cell.Predict() }))
	return nil
}

// layerTaps prices each optional observation tap on the ring: bare and
// tapped runs interleaved in pairs, the median paired difference in
// ns/event. The bare run has no detector, registry, injector or governor.
func layerTaps(env *env, l layerSet) error {
	bare, err := ringSpec(env, scenario.GFCBuf, env.size.layerRing)
	if err != nil {
		return err
	}
	bare.Run.DetectDeadlock = false
	with := func(edit func(*scenario.Spec)) scenario.Spec {
		s := bare
		edit(&s)
		return s
	}
	run := func(spec scenario.Spec, reg *metrics.Registry, governed bool) (float64, error) {
		var ov *scenario.Overrides
		if reg != nil {
			ov = &scenario.Overrides{Metrics: reg}
		}
		if !governed {
			r, err := bareRun(spec, ov)
			return r.nsPerEvent, err
		}
		sim, err := scenario.Build(spec, ov)
		if err != nil {
			return 0, err
		}
		budget := netsim.Budget{MaxEvents: 1 << 40, MaxWall: time.Hour, MaxHeap: 1 << 40}
		ns := sinceNs(func() { err = sim.Net.RunBounded(context.Background(), spec.Run.DurationNs, budget) })
		return ns / float64(sim.Net.Engine().Fired()), err
	}
	taps := []struct {
		name     string
		spec     scenario.Spec
		reg      func() *metrics.Registry
		governed bool
	}{
		{"netsim.tap_metrics_ns", bare, func() *metrics.Registry { return metrics.New(metrics.Options{}) }, false},
		{"netsim.tap_series_ns", bare, func() *metrics.Registry { return metrics.New(metrics.Options{SeriesCap: 1024}) }, false},
		{"netsim.tap_faults_ns", with(func(s *scenario.Spec) { s.Faults = &scenario.FaultsSpec{Preset: "feedback-delay"} }), nil, false},
		{"netsim.tap_detector_ns", with(func(s *scenario.Spec) { s.Run.DetectDeadlock = true }), nil, false},
		{"netsim.tap_dcfit_ns", with(func(s *scenario.Spec) { s.Run.DetectDeadlock, s.Run.Detector = true, "dcfit" }), nil, false},
		{"netsim.tap_governor_ns", bare, nil, true},
	}
	for _, tap := range taps {
		var diffs []float64
		for p := 0; p < env.size.tapPairs; p++ {
			var reg *metrics.Registry
			if tap.reg != nil {
				reg = tap.reg()
			}
			// Alternate which side runs first.
			var b, t float64
			var err1, err2 error
			if p%2 == 0 {
				b, err1 = run(bare, nil, false)
				t, err2 = run(tap.spec, reg, tap.governed)
			} else {
				t, err2 = run(tap.spec, reg, tap.governed)
				b, err1 = run(bare, nil, false)
			}
			if err1 != nil || err2 != nil {
				return fmt.Errorf("%s: %v %v", tap.name, err1, err2)
			}
			diffs = append(diffs, t-b)
		}
		l.timing(tap.name, diffs)
	}
	return nil
}

// ---- flowcontrol / core ------------------------------------------------

func layerFlowcontrol(env *env, l layerSet) error {
	for _, fc := range experiments.MatrixSchemes() {
		spec, err := ringSpec(env, fc, env.size.layerRing)
		if err != nil {
			return err
		}
		r, err := bareRun(spec, nil)
		if err != nil {
			return err
		}
		if r.stats.drops != 0 || r.stats.deadlocked {
			return fmt.Errorf("flowcontrol rung %s: drops=%d deadlocked=%v on the clean ring", fc, r.stats.drops, r.stats.deadlocked)
		}
		l.set("flowcontrol.ns_per_event."+slugOf(fc), r.nsPerEvent)
	}

	const ops = 1_000_000
	c := 10 * units.Gbps
	rl := flowcontrol.NewRateLimiter(c)
	dur := units.TransmissionTime(1500*units.Byte, c)
	var now units.Time
	ns := sinceNs(func() {
		for i := 0; i < ops; i++ {
			rl.SetRate(c / units.Rate(1+i&7))
			now = max(now, rl.NextAllowed()) + dur
			rl.OnSent(now, dur)
		}
	})
	l.set("flowcontrol.ratelimiter_ns", ns/ops)

	st, err := core.NewStageTableRatio(c, 294*units.KB, 275*units.KB, 0.5)
	if err != nil {
		return err
	}
	var sink units.Rate
	ns = sinceNs(func() {
		for i := 0; i < ops; i++ {
			sink += st.RateFor(units.Size(i%300) * units.KB)
		}
	})
	runtime.KeepAlive(sink)
	l.set("core.stage_lookup_ns", ns/ops)
	return nil
}

// ---- experiments -------------------------------------------------------

func layerExperiments(env *env, l layerSet) error {
	ctx := context.Background()
	// The sweep's job list, replayed serially.
	type cell struct {
		job  int
		topo *topology.Topology
		tab  *routing.Table
	}
	var cells []cell
	var gen []float64
	prone := 0
	for i := 0; i < env.size.genScan || len(cells) < env.size.layerCells; i++ {
		var c cell
		var isProne bool
		gen = append(gen, sinceNs(func() {
			c.topo, c.tab, isProne = experiments.GenerateScenario(sweepK, sweepP, env.seed+int64(i))
		})/1e3)
		if isProne && i < env.size.genScan {
			prone++
		}
		if isProne && len(cells) < env.size.layerCells {
			c.job = i
			cells = append(cells, c)
		}
	}
	l.timing("experiments.generate_us.k4", gen)
	l.set("experiments.cbd_prone_share", float64(prone)/float64(env.size.genScan))

	cfg := sweepConfig(env, &sweepState{}, false)
	for _, fc := range sweepSchemes {
		var ms []float64
		for _, c := range cells {
			var err error
			ms = append(ms, sinceNs(func() {
				_, err = experiments.RunScenario(ctx, c.topo, c.tab, fc, cfg, cfg.Seed*1000+int64(c.job*cfg.Repeats))
			})/1e6)
			if err != nil {
				return fmt.Errorf("experiments.cell_ms.%s: %w", slugOf(fc), err)
			}
		}
		l.timing("experiments.cell_ms."+slugOf(fc), ms)
	}
	fcfg := sweepConfig(env, &sweepState{}, true)
	for _, fc := range fluidSchemes {
		var ms []float64
		for _, c := range cells {
			var err error
			ms = append(ms, sinceNs(func() {
				_, err = experiments.RunScenarioFluid(ctx, c.topo, c.tab, fc, fcfg, fcfg.Seed*1000+int64(c.job*fcfg.Repeats))
			})/1e6)
			if err != nil {
				return fmt.Errorf("fluid.cell_ms.%s: %w", slugOf(fc), err)
			}
		}
		l.timing("fluid.cell_ms."+slugOf(fc), ms)
	}

	// One 1×1 matrix per (scheme, scenario).
	for _, fc := range experiments.MatrixSchemes() {
		var ms []float64
		for _, sc := range experiments.FaultScenarios() {
			var err error
			ms = append(ms, sinceNs(func() {
				_, err = experiments.RunFaultMatrix(experiments.FaultMatrixConfig{
					Schemes: []experiments.FC{fc}, Scenarios: []string{sc},
					Seed: env.seed, Duration: env.size.matrixCell,
				})
			})/1e6)
			if err != nil {
				return fmt.Errorf("experiments.faultcell_ms.%s: %w", slugOf(fc), err)
			}
		}
		l.timing("experiments.faultcell_ms."+slugOf(fc), ms)
	}
	return nil
}

// ---- fluid -------------------------------------------------------------

func layerFluid(env *env, l layerSet) error {
	_, fails, info := fluidCheck(env)
	if len(fails) > 0 {
		return fmt.Errorf("fluid.hw_gap_band: %v", fails)
	}
	l.set("fluid.hw_gap_band", info["fluid_hw_gap_band"])

	// fluid.RunNet on a hand-compiled network: the fig-5 two-to-one under
	// the sim preset's stage table.
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	c := topology.DefaultLinkParams().Capacity
	mapping := func() (fluid.Mapping, error) {
		st, err := core.NewStageTableRatio(c, 294*units.KB, 275*units.KB, 0.5)
		return fluid.Staged{T: st}, err
	}
	var cfg fluid.NetConfig
	for n := 0; n < topo.NumNodes(); n++ {
		id := topology.NodeID(n)
		host := topo.Node(id).Kind == topology.Host
		for _, at := range topo.Ports(id) {
			ch := fluid.NetChannel{
				Node: id, Port: at.Port, Capacity: at.Link.Capacity,
				Buffer: 300 * units.KB, Tau: 10 * units.Microsecond, Host: host,
			}
			if !host {
				m, err := mapping()
				if err != nil {
					return err
				}
				ch.Mapping = m
			}
			cfg.Channels = append(cfg.Channels, ch)
		}
	}
	hosts := topo.Hosts()
	dst := hosts[len(hosts)-1]
	for _, src := range hosts[:len(hosts)-1] {
		p, err := tab.Path(src, dst, 1)
		if err != nil {
			return err
		}
		cfg.Flows = append(cfg.Flows, fluid.NetFlow{Path: p})
	}
	cfg.Horizon = 20 * units.Millisecond
	cfg.Step = 500 * units.Nanosecond
	var res *fluid.NetResult
	var err error
	ns := sinceNs(func() { res, err = fluid.RunNet(cfg) })
	if err != nil {
		return err
	}
	l.set("fluid.steps_per_s", float64(res.Steps)/(ns/1e9))
	l.set("fluid.integrated_share", float64(res.Steps)/float64(cfg.Horizon/cfg.Step))

	m, err := mapping()
	if err != nil {
		return err
	}
	var runErr error
	l.timing("fluid.run_single_us", times(20, 1e3, func() {
		_, runErr = fluid.Run(fluid.Config{Mapping: m, Drain: fluid.ConstantDrain(c / 2), Tau: 10 * units.Microsecond})
	}))
	return runErr
}

// ---- runner ------------------------------------------------------------

func layerRunner(env *env, l layerSet) error {
	ctx := context.Background()
	sz := env.size
	noop := func(context.Context) (int, error) { return 0, nil }
	jobs := make([]runner.Job[int], sz.runnerJobs)
	for i := range jobs {
		jobs[i] = noop
	}
	ns := sinceNs(func() { runner.RunWith(ctx, jobs, runner.Options[int]{Workers: Workers}) })
	l.set("runner.job_overhead_ns", ns/float64(len(jobs)))
	ns = sinceNs(func() {
		for i := range jobs {
			_, _, _ = runner.Supervise(ctx, int64(i), runner.Retry{}, nil, noop)
		}
	})
	l.set("runner.supervise_ns", ns/float64(len(jobs)))

	// The checkpoint store: record, then reopen (scan + CRC verify).
	path := filepath.Join(env.dir, "layer-store.jsonl")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	defer os.Remove(path)
	st, err := runner.OpenStore(path, "layer-store")
	if err != nil {
		return err
	}
	value := cellOutcome{Repeats: []*experiments.ScenarioResult{{HostBandwidth: 5 * units.Gbps, Slowdowns: []float64{1.5, 2.5, 3.5}}}}
	ns = sinceNs(func() {
		for i := 0; i < sz.storeN && err == nil; i++ {
			err = st.Record(i, int64(i), value, nil, nil)
		}
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.set("runner.store_record_per_s", float64(sz.storeN)/(ns/1e9))
	ns = sinceNs(func() { st, err = runner.OpenStore(path, "layer-store") })
	if err != nil {
		return err
	}
	done := st.Done()
	if err := st.Close(); err != nil {
		return err
	}
	if done != sz.storeN {
		return fmt.Errorf("runner.store_replay_per_s: reopened store holds %d of %d entries", done, sz.storeN)
	}
	l.set("runner.store_replay_per_s", float64(done)/(ns/1e9))

	// Pool overhead and scaling on the cheapest real cells: a fluid sweep
	// of GFC-buffer, serially by hand, then through RunSweep at one worker
	// and at two.
	sub := *env
	sub.size.fluidProne, sub.tr = sz.layerCells, nil
	state, err := sweepSetup(true)(&sub, spanRef{})
	if err != nil {
		return err
	}
	cfg := sweepConfig(env, state.(*sweepState), true)
	serial := sinceNs(func() {
		for i := 0; i < cfg.Networks && err == nil; i++ {
			topo, tab, prone := experiments.GenerateScenario(cfg.K, cfg.FailureProb, cfg.Seed+int64(i))
			for r := 0; prone && r < cfg.Repeats && err == nil; r++ {
				_, err = experiments.RunScenarioFluid(ctx, topo, tab, experiments.GFCBuf, cfg, cfg.Seed*1000+int64(i*cfg.Repeats+r))
			}
		}
	})
	if err != nil {
		return err
	}
	sweep := func(workers int) (float64, error) {
		cfg.Workers = workers
		var res *experiments.SweepResult
		var err error
		ns := sinceNs(func() { res, err = experiments.RunSweep(ctx, experiments.GFCBuf, cfg) })
		if err == nil && len(res.Failures) > 0 {
			err = fmt.Errorf("%s", res.FailureSummary())
		}
		return ns, err
	}
	w1, err := sweep(1)
	if err != nil {
		return err
	}
	w2, err := sweep(Workers)
	if err != nil {
		return err
	}
	l.set("runner.sweep_overhead_share", 1-serial/w1)
	l.set("runner.speedup_w2", w1/w2)
	return nil
}
