// Benchmarks regenerating every table and figure of the paper's evaluation,
// through the same drivers `gfcsim -exp` dispatches to (experiments.Drivers).
// Each benchmark runs one experiment per iteration and reports the headline
// quantities as custom metrics; run with -v to get the full rows via b.Log.
//
// This is the reproduction harness, not the performance one. What is
// regenerated from it: the paper-vs-measured tables of EXPERIMENTS.md
// (Figures 5–20, Table 1 at reduced scale: `go test -bench Fig9 -benchtime 1x
// -v .`) and its ablation sections (BenchmarkAblation*, BenchmarkOverheadModel),
// whose rows exist nowhere else. Wall-clock, allocation and per-layer numbers
// come from benchmark/ (BENCHMARK.json, `bash benchmark/run.sh`) and are not
// to be read off the ns/op printed here.
package gfc_test

import (
	"context"

	"testing"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/viz"
)

// BenchmarkFig5 regenerates Figure 5: queue/rate evolution under PFC vs
// conceptual GFC in a 2-to-1 congestion scenario. Headline: GFC's steady
// queue sits at B_s = 75 KB.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pfc, err := experiments.RunFig5(experiments.PFC, experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		gfc, err := experiments.RunFig5(experiments.GFCConceptual, experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(pfc.SteadyQueue)/1e3, "PFC-steadyQ-KB")
			b.ReportMetric(float64(gfc.SteadyQueue)/1e3, "GFC-steadyQ-KB")
			b.Logf("Fig5: PFC steady queue %v (saws at 77..80KB), GFC steady queue %v (paper: B_s=75KB)",
				pfc.SteadyQueue, gfc.SteadyQueue)
		}
	}
}

func benchRing(b *testing.B, pause, gentle experiments.FC) {
	for i := 0; i < b.N; i++ {
		dead, err := experiments.RunRing(experiments.RingConfig{FC: pause, HostsPerSwitch: 2},
			experiments.RunOptions{Duration: 150 * units.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		steady, err := experiments.RunRing(experiments.RingConfig{FC: gentle},
			experiments.RunOptions{Duration: 50 * units.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			deadAt := float64(-1)
			if dead.Deadlocked {
				deadAt = dead.DeadlockAt.Millis()
			}
			b.ReportMetric(deadAt, string(pause)+"-deadlock-ms")
			b.ReportMetric(float64(steady.SteadyQueue)/1e3, string(gentle)+"-steadyQ-KB")
			b.ReportMetric(steady.SteadyRate.Gigabits(), string(gentle)+"-rate-Gbps")
			b.Logf("%s deadlocked=%v at %v; %s steady queue %v rate %v",
				pause, dead.Deadlocked, dead.DeadlockAt, gentle, steady.SteadyQueue, steady.SteadyRate)
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: PFC deadlocks on the ring while
// buffer-based GFC stabilises (paper: queue ≈840 KB, rate 5 Gb/s).
func BenchmarkFig9(b *testing.B) { benchRing(b, experiments.PFC, experiments.GFCBuf) }

// BenchmarkFig10 regenerates Figure 10: CBFC deadlocks while time-based GFC
// stabilises (paper: queue ≈745 KB, rate 5 Gb/s).
func BenchmarkFig10(b *testing.B) { benchRing(b, experiments.CBFC, experiments.GFCTime) }

func benchCaseStudy(b *testing.B, pause, gentle experiments.FC) {
	for i := 0; i < b.N; i++ {
		o := experiments.RunOptions{Duration: 40 * units.Millisecond}
		dead, err := experiments.RunCaseStudy(experiments.CaseStudyConfig{FC: pause, WithCross: true}, o)
		if err != nil {
			b.Fatal(err)
		}
		steady, err := experiments.RunCaseStudy(experiments.CaseStudyConfig{FC: gentle}, o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			deadAt := float64(-1)
			if dead.Deadlocked {
				deadAt = dead.DeadlockAt.Millis()
			}
			var min units.Rate = 100 * units.Gbps
			for _, r := range steady.FlowRates {
				if r < min {
					min = r
				}
			}
			b.ReportMetric(deadAt, string(pause)+"-deadlock-ms")
			b.ReportMetric(min.Gigabits(), string(gentle)+"-minflow-Gbps")
			b.Logf("%s deadlocked=%v at %v; %s flow rates %v (paper: 5G each)",
				pause, dead.Deadlocked, dead.DeadlockAt, gentle, steady.FlowRates)
		}
	}
}

// BenchmarkFig12 regenerates Figure 12: PFC deadlock vs buffer-based GFC
// keeping 5 Gb/s per flow in the fat-tree case study.
func BenchmarkFig12(b *testing.B) { benchCaseStudy(b, experiments.PFC, experiments.GFCBuf) }

// BenchmarkFig13 regenerates Figure 13: CBFC vs time-based GFC.
func BenchmarkFig13(b *testing.B) { benchCaseStudy(b, experiments.CBFC, experiments.GFCTime) }

// BenchmarkFig14 regenerates Figure 14: the victim flow freezes under a
// PFC deadlock but keeps progressing under GFC.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// The long horizon lets the squeezed GFC fabric's trickle show
		// up in the final measurement window (packet gaps reach ~100 ms
		// at the deepest stage). Deadlocked/trickling simulations have
		// very sparse event queues, so this is cheap.
		o := experiments.RunOptions{Duration: 600 * units.Millisecond}
		pfc, err := experiments.RunCaseStudy(experiments.CaseStudyConfig{
			FC: experiments.PFC, WithCross: true, WithVictim: true,
		}, o)
		if err != nil {
			b.Fatal(err)
		}
		gfc, err := experiments.RunCaseStudy(experiments.CaseStudyConfig{
			FC: experiments.GFCBuf, WithCross: true, WithVictim: true,
		}, o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			frozen := 0.0
			if !pfc.VictimProgressed {
				frozen = 1
			}
			alive := 0.0
			if gfc.VictimProgressed {
				alive = 1
			}
			b.ReportMetric(frozen, "PFC-victim-frozen")
			b.ReportMetric(alive, "GFC-victim-alive")
			b.Logf("PFC victim total %v (frozen=%v); GFC victim total %v (progressing=%v)",
				pfc.VictimTotal, !pfc.VictimProgressed, gfc.VictimTotal, gfc.VictimProgressed)
		}
	}
}

// BenchmarkFig15 regenerates the Figure 15 workload CDF.
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig15Rows()
		if i == 0 {
			b.Logf("Fig15 enterprise flow-size CDF:\n%s", t.String())
		}
	}
}

// BenchmarkTable1 regenerates Table 1 at reduced scale: deadlock cases per
// scheme among CBD-prone random failure scenarios. Shape: PFC/CBFC > 0 and
// GFC = 0.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultSweep(4)
		results := map[int]map[experiments.FC]*experiments.SweepResult{4: {}}
		for _, fc := range experiments.AllFCs() {
			res, err := experiments.RunSweep(context.Background(), fc, cfg)
			if err != nil {
				b.Fatal(err)
			}
			results[4][fc] = res
		}
		if i == 0 {
			b.ReportMetric(float64(results[4][experiments.PFC].DeadlockCases), "PFC-deadlocks")
			b.ReportMetric(float64(results[4][experiments.CBFC].DeadlockCases), "CBFC-deadlocks")
			b.ReportMetric(float64(results[4][experiments.GFCBuf].DeadlockCases), "GFCbuf-deadlocks")
			b.ReportMetric(float64(results[4][experiments.GFCTime].DeadlockCases), "GFCtime-deadlocks")
			b.Logf("Table 1 (k=4, %d scenarios, %d repeats):\n%s",
				cfg.Networks, cfg.Repeats,
				experiments.Table1Rows(results, []int{4}).String())
			b.Logf("Fig 16 rows:\n%s", experiments.Fig16Rows(results, []int{4}).String())
			b.Logf("Fig 17 rows:\n%s", experiments.Fig17Rows(results, []int{4}).String())
		}
	}
}

// BenchmarkFig16 regenerates Figure 16(a): average available bandwidth on
// CBD-free scenarios is essentially identical across all four schemes.
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := map[int]map[experiments.FC]*experiments.SweepResult{4: {}}
		cfg := experiments.DefaultSweep(4)
		cfg.Networks = 12
		cfg.Repeats = 1
		// Use only CBD-free scenarios: shift seed space to a region and
		// invert the filter by running all scenarios through RunScenario.
		for _, fc := range experiments.AllFCs() {
			out := &experiments.SweepResult{FC: fc, K: 4}
			count := 0
			for s := int64(0); count < cfg.Networks && s < 400; s++ {
				topo, tab, prone := experiments.GenerateScenario(4, 0.05, 9000+s)
				if prone {
					continue // Figure 16(a) uses CBD-free cases
				}
				count++
				res, err := experiments.RunScenario(context.Background(), topo, tab, fc, cfg, 100+s)
				if err != nil {
					b.Fatal(err)
				}
				out.Bandwidth.Add(float64(res.HostBandwidth))
				for _, sl := range res.Slowdowns {
					out.Slowdown.Add(sl)
				}
			}
			results[4][fc] = out
		}
		if i == 0 {
			b.ReportMetric(results[4][experiments.PFC].Bandwidth.Mean()/1e9, "PFC-BW-Gbps")
			b.ReportMetric(results[4][experiments.GFCBuf].Bandwidth.Mean()/1e9, "GFCbuf-BW-Gbps")
			b.Logf("Fig16(a) CBD-free bandwidth:\n%s",
				experiments.Fig16Rows(results, []int{4}).String())
			b.Logf("Fig17(a) CBD-free slowdown:\n%s",
				experiments.Fig17Rows(results, []int{4}).String())
		}
	}
}

// BenchmarkFig17 is covered by the Fig16/Table1 harnesses (the slowdown
// rows come from the same runs); this alias keeps one bench target per
// figure as DESIGN.md promises.
func BenchmarkFig17(b *testing.B) { BenchmarkFig16(b) }

// BenchmarkFig18 regenerates Figure 18: throughput evolution on a
// deadlock-prone scenario — PFC collapses mid-run, GFC keeps the network
// moving.
func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pfc, err := experiments.RunEvolution(experiments.PFC, experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		gfc, err := experiments.RunEvolution(experiments.GFCBuf, experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			deadAt := float64(-1)
			if pfc.Deadlocked {
				deadAt = pfc.DeadlockAt.Millis()
			}
			b.ReportMetric(deadAt, "PFC-collapse-ms")
			b.ReportMetric(gfc.FinalRate.Gigabits(), "GFC-final-Gbps")
			b.Logf("Fig18: PFC deadlocked=%v at %v final %v; GFC deadlocked=%v final %v (paper: collapse at 8.5ms under PFC)",
				pfc.Deadlocked, pfc.DeadlockAt, pfc.FinalRate, gfc.Deadlocked, gfc.FinalRate)
		}
	}
}

// BenchmarkFig19 regenerates Figure 19: the CDF of buffer-based GFC's
// feedback bandwidth (paper: mean 0.21%, p99 < 0.4%, max 0.49%).
func BenchmarkFig19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunOverhead(experiments.OverheadConfig{K: 4, Seed: 3}, experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Mean*100, "mean-%")
			b.ReportMetric(res.P99*100, "p99-%")
			b.ReportMetric(res.Max*100, "max-%")
			b.Logf("Fig19: mean %.4f%% p99 %.4f%% max %.4f%% (paper: 0.21%% / <0.4%% / 0.49%%)",
				res.Mean*100, res.P99*100, res.Max*100)
		}
	}
}

// BenchmarkFig20 regenerates the Figure 20 interaction study.
func BenchmarkFig20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig20(experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.MaxQueue)/1e3, "maxQ-KB")
			b.ReportMetric(res.FinalDCQCN.Gigabits(), "DCQCN-final-Gbps")
			b.Logf("Fig20: max queue %v, final DCQCN rate %v (fair share 1.25G), drops=%d",
				res.MaxQueue, res.FinalDCQCN, res.Drops)
		}
	}
}

// BenchmarkOverheadModel evaluates the closed-form §4.2 bandwidth model
// (worst case m/τ and steady case m/8τ).
func BenchmarkOverheadModel(b *testing.B) {
	tau := core.Tau(10*units.Gbps, 1500*units.Byte, units.Microsecond, 3*units.Microsecond)
	model := core.OverheadModel{MessageSize: 64 * units.Byte, Tau: tau}
	for i := 0; i < b.N; i++ {
		worst := model.WorstCase()
		steady := model.Steady()
		if i == 0 {
			b.ReportMetric(float64(worst)/1e6, "worst-Mbps")
			b.ReportMetric(float64(steady)/1e6, "steady-Mbps")
			b.Logf("§4.2 model at 10GbE (τ=%v): worst %v (paper 69Mbps / 0.69%%), steady %v (paper 8.6Mbps / 0.086%%)",
				tau, worst, steady)
		}
	}
}

// BenchmarkAblationScheduling compares the switching disciplines on the
// fat-tree case study: FIFO output queueing deadlocks PFC even without the
// squeeze flow, while input-queued and VOQ need structural oversubscription
// — the reproduction note DESIGN.md discusses.
func BenchmarkAblationScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var row string
		for _, sched := range []netsim.Scheduling{
			netsim.SchedInputQueued, netsim.SchedFIFO, netsim.SchedVOQ,
		} {
			// The ablation is a spec overlay on the figure's declaration,
			// not a driver knob.
			spec := scenario.CaseStudy(scenario.PFC, false, false)
			spec.Sim.Scheduling = sched.String()
			spec.Run.DurationNs = 40 * units.Millisecond
			sim, err := scenario.Build(spec, nil)
			if err != nil {
				b.Fatal(err)
			}
			res := sim.Run()
			row += sched.String() + "="
			if res.Deadlocked {
				row += "deadlock "
			} else {
				row += "stable "
			}
		}
		if i == 0 {
			b.Logf("PFC on the static 4-flow case study: %s", row)
		}
	}
}

// BenchmarkAblationTau sweeps the configured feedback latency τ: the safe
// B1 bound B_m − 2Cτ moves earlier as τ grows, so the steady queue settles
// lower — the buffer/latency trade-off behind equation (6) and §5.4.
func BenchmarkAblationTau(b *testing.B) {
	taus := []units.Time{
		10 * units.Microsecond, 45 * units.Microsecond, 90 * units.Microsecond,
	}
	const d = 30 * units.Millisecond
	for i := 0; i < b.N; i++ {
		var prev units.Size
		for j, tau := range taus {
			// The ablation is a spec overlay on the figure's declaration:
			// the testbed preset pins B1/B0 for τ = 90 µs, so spell its
			// parameters out with both left to the factory, which derives
			// the safe bound (B1 ≤ Bm − 2Cτ) for the τ under test.
			spec := scenario.Ring(scenario.GFCBuf, 1)
			testbed, fp := scenario.TestbedParams()
			fp.B1, fp.B0 = 0, 0
			spec.Scheme = scenario.SchemeSpec{FC: scenario.GFCBuf, Params: fp}
			spec.Sim.BufferBytes = testbed.BufferSize
			spec.Sim.TauNs = tau
			spec.Run.DurationNs = d
			// The figure's probe: the S1 ingress fed by H1, and H1's
			// arrivals there.
			queue, arrivals := &stats.Series{}, stats.NewBinCounter(100*units.Microsecond)
			sim, err := scenario.Build(spec, &scenario.Overrides{Trace: func(topo *topology.Topology) *netsim.Trace {
				s1, h1 := topo.MustLookup("S1"), topo.MustLookup("H1")
				return &netsim.Trace{
					OnQueue: func(t units.Time, node topology.NodeID, port int, q units.Size) {
						if node == s1 && port == 0 {
							queue.Append(t, float64(q))
						}
					},
					OnArrival: func(t units.Time, node topology.NodeID, pkt *netsim.Packet) {
						if node == s1 && pkt.Flow.Src == h1 {
							arrivals.Add(t, pkt.Size)
						}
					},
				}
			}})
			if err != nil {
				b.Fatal(err)
			}
			sim.Run()
			steadyQueue := units.Size(queue.MeanAfter(d * 3 / 4))
			steadyRate := units.Rate(viz.RateSeries(arrivals).MeanAfter(d * 3 / 4))
			if i == 0 {
				b.Logf("τ=%v: steady queue %v, steady rate %v", tau, steadyQueue, steadyRate)
				b.ReportMetric(float64(steadyQueue)/1e3,
					"steadyQ-KB-tau"+tau.String())
				if j > 0 && steadyQueue > prev {
					b.Logf("note: steady queue did not shrink with larger τ")
				}
			}
			prev = steadyQueue
		}
	}
}

// BenchmarkAblationBaselines sets GFC beside PFC on the deadlock ring, with
// the path-stretch price of Up*/Down* routing (§8; CBD-free by construction)
// — the related-work family that needs no extra class and drops nothing. GFC
// is the one that is deadlock-free, lossless and topology-agnostic at once.
func BenchmarkAblationBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Up*/Down* path stretch on a 5-ring.
		ring := topology.Ring(5, topology.DefaultLinkParams())
		ud, err := routing.NewUpDown(ring)
		if err != nil {
			b.Fatal(err)
		}
		stretch, inflated, err := ud.AllPairsStretch(routing.NewSPF(ring))
		if err != nil {
			b.Fatal(err)
		}

		// Plain PFC vs GFC on the formation ring.
		type outcome struct {
			name      string
			deadlock  bool
			drops     int64
			delivered units.Size
		}
		var rows []outcome
		run := func(name string, factory flowcontrol.Factory) {
			topo := topology.RingHosts(3, 2, topology.DefaultLinkParams())
			cfg := netsim.Config{
				BufferSize:  1000 * units.KB,
				Tau:         90 * units.Microsecond,
				FlowControl: factory,
			}
			n, err := netsim.New(topo, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for fi, path := range routing.RingHostsClockwisePaths(topo, 3, 2) {
				f := &netsim.Flow{ID: fi + 1, Src: path[0].Node,
					Dst:  path[len(path)-1].Link.Other(path[len(path)-1].Node),
					Path: path}
				if err := n.AddFlow(f, 0); err != nil {
					b.Fatal(err)
				}
			}
			det := deadlock.NewDetector(n)
			det.Install()
			n.Run(100 * units.Millisecond)
			rows = append(rows, outcome{name, det.Deadlocked() != nil, n.Drops(), n.TotalDelivered()})
		}
		run("PFC", flowcontrol.NewPFC(flowcontrol.PFCConfig{XOFF: 800 * units.KB, XON: 797 * units.KB}))
		run("GFC", flowcontrol.NewGFCBuffer(flowcontrol.GFCBufferConfig{B1: 750 * units.KB}))

		if i == 0 {
			b.Logf("Up*/Down* on 5-ring: mean stretch %.2f, %.0f%% of pairs inflated (CBD-free by construction)",
				stretch, inflated*100)
			for _, r := range rows {
				b.Logf("%-14s deadlock=%-5v drops=%-4d delivered=%v",
					r.name, r.deadlock, r.drops, r.delivered)
			}
		}
	}
}

// BenchmarkAblationStageRatio compares the per-stage rate ratio of the
// multi-stage mapping: the paper derives r ≤ 3/4 from Theorem 4.1 (equation
// 3) and selects r = 1/2 (equation 4). A larger ratio descends in finer
// steps — smoother rates, higher steady queue for the same B1 bound.
func BenchmarkAblationStageRatio(b *testing.B) {
	run := func(ratio float64) (units.Size, units.Rate) {
		topo := topology.Ring(3, topology.DefaultLinkParams())
		cfg := netsim.Config{
			BufferSize: 1000 * units.KB,
			Tau:        90 * units.Microsecond,
			FlowControl: flowcontrol.NewGFCBuffer(flowcontrol.GFCBufferConfig{
				Ratio: ratio,
			}),
		}
		n, err := netsim.New(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var flows []*netsim.Flow
		for fi, path := range routing.RingClockwisePaths(topo, 3) {
			f := &netsim.Flow{ID: fi + 1, Src: path[0].Node,
				Dst:  path[len(path)-1].Link.Other(path[len(path)-1].Node),
				Path: path}
			if err := n.AddFlow(f, 0); err != nil {
				b.Fatal(err)
			}
			flows = append(flows, f)
		}
		n.Run(40 * units.Millisecond)
		if n.Drops() != 0 {
			b.Fatalf("ratio %v dropped %d packets", ratio, n.Drops())
		}
		s1 := topo.MustLookup("S1")
		q := n.IngressQueue(s1, 0)
		var total units.Size
		for _, f := range flows {
			total += f.Delivered
		}
		return q, units.RateOf(total, n.Now()) / 3
	}
	for i := 0; i < b.N; i++ {
		for _, ratio := range []float64{0.5, 0.625, 0.75} {
			q, r := run(ratio)
			if i == 0 {
				b.Logf("ratio %.3f: steady host queue %v, per-flow rate %v", ratio, q, r)
			}
		}
	}
}
