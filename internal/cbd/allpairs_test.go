package cbd

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/workload"
)

// referenceAllPairs is the per-pair all-pairs analysis FromAllPairs replaced,
// kept as its specification: route every pair with Table.Path and record it
// with AddPath. A pair whose Path fails contributes nothing.
func referenceAllPairs(t *topology.Topology, tab *routing.Table, rackOf func(topology.NodeID) int) *Graph {
	g := NewGraph(t)
	hosts := t.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst || (rackOf != nil && rackOf(src) == rackOf(dst)) {
				continue
			}
			if path, err := tab.Path(src, dst, FlowKey(src, dst)); err == nil {
				g.AddPath(path)
			}
		}
	}
	return g
}

// edgeSet renders g numbering-independently: its channels and its
// dependencies by channel name.
func edgeSet(g *Graph) (chans map[Channel]bool, edges map[[2]Channel]bool) {
	chans, edges = map[Channel]bool{}, map[[2]Channel]bool{}
	for u, c := range g.names {
		chans[c] = true
		for _, v := range g.succ[u] {
			edges[[2]Channel{c, g.names[v]}] = true
		}
	}
	return chans, edges
}

// checkAgainstReference asserts FromAllPairs and the reference produce the
// same channel set, edge set and verdict, and that a reported cycle is one.
func checkAgainstReference(t *testing.T, name string, topo *topology.Topology, tab *routing.Table, rackOf func(topology.NodeID) int) *Graph {
	t.Helper()
	got, want := FromAllPairs(topo, tab, rackOf), referenceAllPairs(topo, tab, rackOf)
	gc, ge := edgeSet(got)
	wc, we := edgeSet(want)
	if len(gc) != len(wc) || got.NumChannels() != want.NumChannels() {
		t.Fatalf("%s: %d channels, reference has %d", name, got.NumChannels(), want.NumChannels())
	}
	for c := range wc {
		if !gc[c] {
			t.Fatalf("%s: channel %v missing", name, c)
		}
	}
	if len(ge) != len(we) {
		t.Fatalf("%s: %d edges, reference has %d", name, len(ge), len(we))
	}
	for e := range we {
		if !ge[e] {
			t.Fatalf("%s: edge %v -> %v missing", name, e[0], e[1])
		}
	}
	if got.HasCycle() != want.HasCycle() {
		t.Fatalf("%s: HasCycle = %v, reference %v", name, got.HasCycle(), want.HasCycle())
	}
	cyc := got.FindCycle()
	for i, c := range cyc {
		if next := cyc[(i+1)%len(cyc)]; c.To != next.From || !ge[[2]Channel{c, next}] {
			t.Fatalf("%s: cycle does not chain along recorded edges: %v", name, cyc)
		}
		if topo.Node(c.From).Kind != topology.Switch || topo.Node(c.To).Kind != topology.Switch {
			t.Fatalf("%s: cycle holds a host channel: %v", name, cyc)
		}
	}
	return got
}

// TestFromAllPairsMatchesReference is the equivalence property: over seeded
// random failed fat-trees the destination-major walk builds exactly the graph
// the per-pair reference does.
func TestFromAllPairsMatchesReference(t *testing.T) {
	probs := []float64{0.05, 0.15, 0.25}
	cyclic := 0
	check := func(k int, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		topo := topology.FatTree(k, topology.DefaultLinkParams())
		p := probs[seed%3]
		topo.FailRandomLinks(rng, p)
		var rackOf func(topology.NodeID) int
		if seed%2 == 0 {
			rackOf = workload.EdgeRacks(topo)
		}
		g := checkAgainstReference(t, fmt.Sprintf("k=%d seed=%d p=%.2f", k, seed, p), topo, routing.NewSPF(topo), rackOf)
		if g.HasCycle() {
			cyclic++
		}
	}
	for seed := int64(0); seed < 216; seed++ {
		check(4, seed)
	}
	for seed := int64(0); seed < 12; seed++ {
		check(8, 1000+seed)
	}
	// The property is vacuous on CBD-free graphs only; make sure both
	// verdicts were exercised.
	if cyclic == 0 || cyclic == 228 {
		t.Fatalf("%d of 228 topologies CBD-prone: the sample does not exercise both verdicts", cyclic)
	}
}

// TestFromAllPairsPartialRouting covers the pairs that must contribute
// nothing: unreachable destinations in a partitioned fabric, destinations a
// NewSPFToward table does not route, and routes that dead-end part-way.
func TestFromAllPairsPartialRouting(t *testing.T) {
	lp := topology.DefaultLinkParams()

	// Partitioned: E1 loses both uplinks, so its hosts reach nobody outside
	// the rack and nobody reaches them.
	part := topology.FatTree(4, lp)
	part.FailLinkBetween("E1", "A1")
	part.FailLinkBetween("E1", "A2")
	tab := routing.NewSPF(part)
	if tab.Reachable(part.MustLookup("H0"), part.MustLookup("H15")) {
		t.Fatal("fixture is not partitioned")
	}
	g := checkAgainstReference(t, "partitioned", part, tab, workload.EdgeRacks(part))
	e1 := part.MustLookup("E1")
	for _, c := range g.names {
		if c.From == e1 || c.To == e1 {
			t.Fatalf("partitioned: channel %v touches the cut-off switch", c)
		}
	}

	// Unrouted destinations: only three hosts are routed toward.
	rng := rand.New(rand.NewSource(7))
	some := topology.FatTree(4, lp)
	some.FailRandomLinks(rng, 0.15)
	hosts := some.Hosts()
	toward := routing.NewSPFToward(some, []topology.NodeID{hosts[0], hosts[5], hosts[15], hosts[5]})
	if g := checkAgainstReference(t, "toward", some, toward, nil); g.NumChannels() == 0 {
		t.Fatal("toward: routed destinations recorded no channels")
	}

	// All-or-nothing: a link that fails after the table was built leaves
	// routes that resolve for a few hops and then dead-end. Every route
	// toward H3 crosses S2-S3, so none resolves and the graph stays empty —
	// recording the resolved prefix would leave S1->S2 behind.
	chain := topology.Linear(3, lp)
	stale := routing.NewSPFToward(chain, []topology.NodeID{chain.MustLookup("H3")})
	chain.FailLinkBetween("S2", "S3")
	if _, err := stale.Path(chain.MustLookup("H1"), chain.MustLookup("H3"), 0); err == nil {
		t.Fatal("stale: route across the failed link still resolves")
	}
	if g := checkAgainstReference(t, "stale", chain, stale, nil); g.NumChannels() != 0 {
		t.Fatalf("stale: dead-ended routes left %d channels behind", g.NumChannels())
	}

	// The same on a fabric: routes that still resolve are recorded, the
	// dead-ended ones are not.
	fab := topology.FatTree(4, lp)
	staleFab := routing.NewSPF(fab)
	fab.FailLinkBetween("E1", "A1")
	fab.FailLinkBetween("A3", "C1")
	checkAgainstReference(t, "stale fabric", fab, staleFab, workload.EdgeRacks(fab))
}

// TestFromAllPairsAllocs is the allocation gate: the all-pairs walk allocates
// per graph (vertex and successor lists, the routing rows), never per pair —
// a healthy k=8 fat-tree has 16 256 ordered host pairs.
func TestFromAllPairsAllocs(t *testing.T) {
	topo := topology.FatTree(8, topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	racks := workload.EdgeRacks(topo)
	allocs := testing.AllocsPerRun(3, func() { FromAllPairs(topo, tab, racks) })
	t.Logf("FromAllPairs(k=8): %.0f allocs", allocs)
	if allocs > 300 {
		t.Fatalf("FromAllPairs(k=8) = %.0f allocs, budget 300: a per-pair allocation is back", allocs)
	}
}

func BenchmarkFromAllPairs(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		topo := topology.FatTree(k, topology.DefaultLinkParams())
		tab := routing.NewSPF(topo)
		racks := workload.EdgeRacks(topo)
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				FromAllPairs(topo, tab, racks).HasCycle()
			}
		})
	}
}
