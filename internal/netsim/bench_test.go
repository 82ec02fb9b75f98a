package netsim

import (
	"testing"

	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// BenchmarkLinearForwarding drives a saturated 3-hop path for a fixed
// simulated interval per iteration: the hot loop of refill → kick →
// completeTx → arrive that every experiment spends its time in. ReportAllocs
// pins the effect of the packet free-list and the per-kind event handlers.
func BenchmarkLinearForwarding(b *testing.B) {
	topo := topology.Linear(3, topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	src, dst := topo.MustLookup("H1"), topo.MustLookup("H3")
	path, err := tab.Path(src, dst, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		n, err := New(topo, baseConfig(gfcFactory()))
		if err != nil {
			b.Fatal(err)
		}
		f := &Flow{ID: 1, Src: src, Dst: dst, Path: path}
		if err := n.AddFlow(f, 0); err != nil {
			b.Fatal(err)
		}
		n.Run(units.Millisecond)
		if f.Delivered == 0 {
			b.Fatal("no delivery")
		}
		events += n.Engine().Fired()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkCongestedFabric exercises the 2:1 congestion regime where flow
// control wakes transmitters via scheduled kicks — the path that used to
// allocate a fresh closure per retry.
func BenchmarkCongestedFabric(b *testing.B) {
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	type ep struct{ src, dst topology.NodeID }
	eps := []ep{
		{topo.MustLookup("H1"), topo.MustLookup("H3")},
		{topo.MustLookup("H2"), topo.MustLookup("H3")},
	}
	paths := make([][]routing.Hop, len(eps))
	for i, e := range eps {
		p, err := tab.Path(e.src, e.dst, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		paths[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		n, err := New(topo, baseConfig(gfcFactory()))
		if err != nil {
			b.Fatal(err)
		}
		for j, e := range eps {
			f := &Flow{ID: j + 1, Src: e.src, Dst: e.dst, Path: paths[j]}
			if err := n.AddFlow(f, 0); err != nil {
				b.Fatal(err)
			}
		}
		n.Run(units.Millisecond)
		events += n.Engine().Fired()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkLinearForwardingMetrics is BenchmarkLinearForwarding with a full
// registry (counters + occupancy series) attached — the enabled-cost
// companion to the disabled-cost guarantee TestAllocBudget enforces.
func BenchmarkLinearForwardingMetrics(b *testing.B) {
	topo := topology.Linear(3, topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	src, dst := topo.MustLookup("H1"), topo.MustLookup("H3")
	path, err := tab.Path(src, dst, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := baseConfig(gfcFactory())
		cfg.Metrics = metrics.New(metrics.Options{SeriesCap: 256})
		n, err := New(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		f := &Flow{ID: 1, Src: src, Dst: dst, Path: path}
		if err := n.AddFlow(f, 0); err != nil {
			b.Fatal(err)
		}
		n.Run(units.Millisecond)
		if f.Delivered == 0 {
			b.Fatal("no delivery")
		}
		events += n.Engine().Fired()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// TestAllocBudget is the whole-run allocation gate — set-up plus pool growth;
// scenario.TestSteadyStateAllocs holds the warmed-up loop to zero. With metrics
// disabled, the two hot-path benchmarks must not allocate more per iteration
// than the budgets set from their measured baselines (110 and 110 allocs/op
// with one handler per event kind, the per-port callbacks gone; 143 and 132
// with per-channel feedback delivery slots, the first of them inline in the
// channel's env and every callback bound on first use; 144 and 133 after the
// struct-of-arrays flattening, the per-network packet free-list, stage-table
// memoization, intrusive packet FIFOs with no backing arrays to grow and no
// per-arrival side table; 148 and 135 with that table, 158 with head-indexed
// array FIFOs, 3697 and 1855 before any of it), with ~5% headroom for
// toolchain noise. An increase here means a closure, interface box, growing
// queue or map crept back into the refill/kick/arrive loop.
func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocs/op")
	}
	for _, tc := range []struct {
		name   string
		bench  func(*testing.B)
		budget int64
	}{
		{"LinearForwarding", BenchmarkLinearForwarding, 116},
		{"CongestedFabric", BenchmarkCongestedFabric, 116},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := testing.Benchmark(tc.bench)
			if got := res.AllocsPerOp(); got > tc.budget {
				t.Errorf("%s allocates %d/op with metrics disabled, budget %d",
					tc.name, got, tc.budget)
			} else {
				t.Logf("%s: %d allocs/op (budget %d)", tc.name, got, tc.budget)
			}
		})
	}
}
