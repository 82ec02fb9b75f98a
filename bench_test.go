// Benchmarks for the results of EXPERIMENTS.md that gfcsim does not print:
// the §4.2 overhead closed form (BenchmarkOverheadModel) and the ablations
// (BenchmarkAblation*), whose rows exist nowhere else. Each runs its
// experiment once per iteration and logs its rows; run with
// `go test -run '^$' -bench 'Ablation|OverheadModel' -benchtime 1x -v .`.
// Every paper figure and table is regenerated by `gfcsim -exp` alone, and
// cmd/gfcsim's TestExperimentsDoc checks EXPERIMENTS.md against it.
// Wall-clock, allocation and per-layer numbers come from benchmark/
// (BENCHMARK.json, `bash benchmark/run.sh`), not from the ns/op printed here.
package gfc_test

import (
	"testing"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/viz"
)

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
