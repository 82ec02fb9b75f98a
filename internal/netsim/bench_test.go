package netsim

import (
	"math"
	"testing"

	"github.com/gfcsim/gfc/internal/flowcontrol"
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
// queue or map crept back into the refill/kick/arrive loop. The byte budgets
// hold the packet arena, which scales with live packets, to the 32-byte
// packet. Measured with the nodes in an arena: 66 and 80 allocs/op, 11 288
// and 22 352 B/op (12 184 and 27 728 with the 48-byte packet; 12 264 and
// 27 928 with a heap object per node; 109 and 107 allocs/op, 14 384 and
// 29 160 B/op with four controller objects per channel; 17 336 and 46 880
// B/op with the 88-byte packet and its side free list), plus ~5%.
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
		allocs int64 // allocs/op
		bytes  int64 // B/op
	}{
		{"LinearForwarding", BenchmarkLinearForwarding, 69, 11_900},
		{"CongestedFabric", BenchmarkCongestedFabric, 84, 23_500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := testing.Benchmark(tc.bench)
			if got := res.AllocsPerOp(); got > tc.allocs {
				t.Errorf("%s allocates %d/op with metrics disabled, budget %d",
					tc.name, got, tc.allocs)
			} else {
				t.Logf("%s: %d allocs/op (budget %d)", tc.name, got, tc.allocs)
			}
			if got := res.AllocedBytesPerOp(); got > tc.bytes {
				t.Errorf("%s allocates %d B/op with metrics disabled, budget %d",
					tc.name, got, tc.bytes)
			} else {
				t.Logf("%s: %d B/op (budget %d)", tc.name, got, tc.bytes)
			}
		})
	}
}

// TestNoPerChannelAllocs: building a network allocates neither per node nor
// per channel — the nodes and ports are arenas, and flow control is one bank
// per network, its state in dense slices. Under every scheme, New on a k=8
// fat-tree (208 nodes, 768 channels) makes as many allocations as on a k=4
// one (36 nodes, 96 channels), where a heap object per node would cost 172
// more and one per channel 672. The one allowance is logarithmic: CBFC's and
// GFC-time's Start puts an advertisement and a timer in flight on every
// channel, so the feedback slots and the engine's two FIFO lanes they land in
// grow by doubling, once per doubling of the channel count. A bound metrics
// registry allocates nothing per node either: it takes its layout from the
// topology's channel numbering, not from a description built per node.
func TestNoPerChannelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocs")
	}
	for _, sc := range []struct {
		name string
		cfg  func() Config
	}{
		{"pfc", func() Config { return baseConfig(pfcFactory()) }},
		{"cbfc", func() Config { return baseConfig(cbfcFactory()) }},
		{"gfc-buffer", func() Config { return baseConfig(gfcFactory()) }},
		{"gfc-time", func() Config { return baseConfig(gfcTimeFactory()) }},
		{"gfc-conceptual", func() Config {
			return baseConfig(flowcontrol.NewGFCConceptual(flowcontrol.GFCConceptualConfig{}))
		}},
		{"bfc", func() Config { return baseConfig(flowcontrol.NewBFCQueues(4)) }},
		{"gfc-buffer+registry", func() Config {
			cfg := baseConfig(gfcFactory())
			cfg.Metrics = metrics.New(metrics.Options{})
			return cfg
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			type size struct {
				allocs float64
				chans  int
			}
			build := func(k int) size {
				topo := topology.FatTree(k, topology.DefaultLinkParams())
				s := size{chans: 2 * topo.NumLinks()}
				s.allocs = testing.AllocsPerRun(20, func() {
					if _, err := New(topo, sc.cfg()); err != nil {
						t.Fatal(err)
					}
				})
				return s
			}
			small, large := build(4), build(8)
			budget := 3 * math.Log2(float64(large.chans)/float64(small.chans))
			if extra := large.allocs - small.allocs; extra > budget {
				t.Errorf("New allocates %v times on k=8, %v on k=4: %v more, budget %v",
					large.allocs, small.allocs, extra, budget)
			} else {
				t.Logf("New: %v allocs on k=4, %v on k=8 (budget %v more)", small.allocs, large.allocs, budget)
			}
		})
	}
}
