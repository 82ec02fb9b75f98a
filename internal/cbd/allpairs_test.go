package cbd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// flowKey is the one ECMP key referenceSampled routes the (src, dst) pair
// under: a deterministic sample of the pair's equal-cost choices, not the
// keys a workload.Generator hashes its flows with.
func flowKey(src, dst topology.NodeID) uint64 {
	return uint64(src)<<32 | uint64(uint32(dst))
}

// referenceSampled is the analysis FromAllPairs used to be: route every
// inter-rack pair once, with Table.Path under flowKey, and record the route
// with AddPath. A pair whose Path fails contributes nothing. Every path it
// records is a shortest path, so its graph must be a subgraph of the closure.
func referenceSampled(t *topology.Topology, tab *routing.Table, rackOf func(topology.NodeID) int) *Graph {
	g := NewGraph(t)
	hosts := t.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst || (rackOf != nil && rackOf(src) == rackOf(dst)) {
				continue
			}
			if path, err := tab.Path(src, dst, flowKey(src, dst)); err == nil {
				g.AddPath(path)
			}
		}
	}
	return g
}

// referenceAllPaths is FromAllPairs' brute-force specification: it lists
// every shortest path of every inter-rack pair, one hop at a time over the
// next-hop rows (appendNextHops, read through Rows.Row), and records each one
// that reaches its destination with AddPath. No DAG, no grouping of
// destinations: it is exponential in path length, so only small fabrics.
func referenceAllPaths(t *topology.Topology, tab *routing.Table, rackOf func(topology.NodeID) int) *Graph {
	g := NewGraph(t)
	rows := tab.Rows()
	hosts := t.Hosts()
	var path []routing.Hop
	var walk func(n, dst topology.NodeID)
	walk = func(n, dst topology.NodeID) {
		if n == dst {
			g.AddPath(path)
			return
		}
		for _, at := range rows.Row(n) {
			path = append(path, routing.Hop{Node: n, Port: at.Port, Link: at.Link})
			walk(at.Peer, dst)
			path = path[:len(path)-1]
		}
	}
	for _, dst := range hosts {
		if !rows.Toward(dst) {
			continue
		}
		for _, src := range hosts {
			if src != dst && (rackOf == nil || rackOf(src) != rackOf(dst)) {
				walk(src, dst)
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

// missing returns the first channel or dependency of sub that g lacks, as
// text, or "" when sub is a subgraph of g.
func missing(g, sub *Graph) string {
	gc, ge := edgeSet(g)
	sc, se := edgeSet(sub)
	for c := range sc {
		if !gc[c] {
			return fmt.Sprintf("channel %v", c)
		}
	}
	for e := range se {
		if !ge[e] {
			return fmt.Sprintf("edge %v -> %v", e[0], e[1])
		}
	}
	return ""
}

// differs returns the first difference between two graphs' vertex numbering
// (names, vert) or successor lists, as text, or "" when they are identical.
func differs(g, want *Graph) string {
	for i := range min(len(g.names), len(want.names)) {
		if g.names[i] != want.names[i] {
			return fmt.Sprintf("vertex %d is channel %v, want %v", i, g.names[i], want.names[i])
		}
	}
	if len(g.names) != len(want.names) {
		return fmt.Sprintf("%d channels, want %d", len(g.names), len(want.names))
	}
	if !slices.Equal(g.vert, want.vert) {
		return "vertex numbering differs"
	}
	for u := range g.succ {
		if !slices.Equal(g.succ[u], want.succ[u]) {
			return fmt.Sprintf("succ[%v] = %v, want %v", g.names[u], g.succ[u], want.succ[u])
		}
	}
	return ""
}

// checkClosure asserts what FromAllPairs owes every fixture: it is the graph
// fromAllPairsReference builds, it contains the sampled graph edge for edge,
// it equals the brute-force graph exactly (when brute is set), and a cycle it
// reports is one. It reports whether the closure holds a channel or dependency
// the sample missed.
func checkClosure(t *testing.T, name string, topo *topology.Topology, tab *routing.Table, rackOf func(topology.NodeID) int, brute bool) (g *Graph, wider bool) {
	t.Helper()
	g = FromAllPairs(topo, tab, rackOf)
	if d := differs(g, fromAllPairsReference(topo, tab, rackOf)); d != "" {
		t.Fatalf("%s: not the reference closure: %s", name, d)
	}
	sampled := referenceSampled(topo, tab, rackOf)
	if m := missing(g, sampled); m != "" {
		t.Fatalf("%s: the sampled graph's %s is not in the closure", name, m)
	}
	if brute {
		want := referenceAllPaths(topo, tab, rackOf)
		if m := missing(g, want); m != "" {
			t.Fatalf("%s: the closure lacks the brute-force %s", name, m)
		}
		if m := missing(want, g); m != "" {
			t.Fatalf("%s: the closure has %s, on no shortest path", name, m)
		}
	}
	_, ge := edgeSet(g)
	cyc := g.FindCycle()
	if (len(cyc) > 0) != g.HasCycle() {
		t.Fatalf("%s: FindCycle and HasCycle disagree", name)
	}
	for i, c := range cyc {
		if next := cyc[(i+1)%len(cyc)]; c.To != next.From || !ge[[2]Channel{c, next}] {
			t.Fatalf("%s: cycle does not chain along recorded edges: %v", name, cyc)
		}
		if topo.Node(c.From).Kind != topology.Switch || topo.Node(c.To).Kind != topology.Switch {
			t.Fatalf("%s: cycle holds a host channel: %v", name, cyc)
		}
	}
	return g, missing(sampled, g) != ""
}

// parityRacks puts hosts in two racks by NodeID parity, so hosts of one edge
// switch sit in different racks: destinations of one switch may share a walk
// only with those of their own rack.
func parityRacks(n topology.NodeID) int { return int(n % 2) }

// TestFromAllPairsMatchesReference is the closure's specification over 228
// seeded random failed fat-trees (216 at k=4, 12 at k=8), each under no racks,
// edge racks or parity racks: the sampled graph is a subgraph of FromAllPairs,
// and at k=4 FromAllPairs is exactly the union of every shortest path of every
// inter-rack pair. On those and on 30 more seeds at each of k=8 and 16 it is
// also fromAllPairsReference's graph: same vertex numbering, same successor
// lists in the same order.
func TestFromAllPairsMatchesReference(t *testing.T) {
	probs := []float64{0.05, 0.15, 0.25}
	cyclic, wider := 0, 0
	check := func(k int, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		topo := topology.FatTree(k, topology.DefaultLinkParams())
		p := probs[seed%3]
		topo.FailRandomLinks(rng, p)
		rackOf := [](func(topology.NodeID) int){nil, workload.EdgeRacks(topo), parityRacks}[seed%3]
		name := fmt.Sprintf("k=%d seed=%d p=%.2f", k, seed, p)
		g, w := checkClosure(t, name, topo, routing.NewSPF(topo), rackOf, k == 4)
		if g.HasCycle() {
			cyclic++
		}
		if w {
			wider++
		}
	}
	for seed := int64(0); seed < 216; seed++ {
		check(4, seed)
	}
	for seed := int64(0); seed < 12; seed++ {
		check(8, 1000+seed)
	}
	// The properties are vacuous on CBD-free graphs and on fabrics where one
	// sample covers every path; make sure neither is all the fixtures hold.
	if cyclic == 0 || cyclic == 228 {
		t.Fatalf("%d of 228 topologies CBD-prone: the sample does not exercise both verdicts", cyclic)
	}
	if wider == 0 {
		t.Fatal("no closure is wider than its sampled graph: the fixtures miss the soundness gap")
	}
	for _, k := range []int{8, 16} {
		for seed := int64(0); seed < 30; seed++ {
			topo := topology.FatTree(k, topology.DefaultLinkParams())
			topo.FailRandomLinks(rand.New(rand.NewSource(seed)), probs[seed%3])
			// k=16 under edge racks, as the sweep runs it: under the other
			// two, each closure walks all 1 024 destinations, not 128.
			rackOf := workload.EdgeRacks(topo)
			if k == 8 {
				rackOf = [](func(topology.NodeID) int){nil, rackOf, parityRacks}[seed%3]
			}
			tab := routing.NewSPF(topo)
			if d := differs(FromAllPairs(topo, tab, rackOf), fromAllPairsReference(topo, tab, rackOf)); d != "" {
				t.Fatalf("k=%d seed=%d: not the reference closure: %s", k, seed, d)
			}
		}
	}
}

// TestFromAllPairsPartialRouting covers the routes that must contribute
// nothing: unreachable destinations in a partitioned fabric, destinations a
// NewSPFToward table does not route, and routes that dead-end part-way; and
// the destinations that must not share a walk: multi-homed hosts, and hosts
// whose only link changed state after the table was built.
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
	g, _ := checkClosure(t, "partitioned", part, tab, workload.EdgeRacks(part), true)
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
	for _, racks := range [](func(topology.NodeID) int){nil, workload.EdgeRacks(some)} {
		if g, _ := checkClosure(t, "toward", some, toward, racks, true); g.NumChannels() == 0 {
			t.Fatal("toward: routed destinations recorded no channels")
		}
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
	if g, _ := checkClosure(t, "stale", chain, stale, nil, true); g.NumChannels() != 0 {
		t.Fatalf("stale: dead-ended routes left %d channels behind", g.NumChannels())
	}

	// A dead branch beside a live one: S1 reaches H2 over S2 or S3, and S3-S4
	// fails after the table was built. S1 stays live through S2, but S1->S3
	// leads nowhere and must not be recorded.
	dia := topology.New()
	h1, h2 := dia.AddHost("H1"), dia.AddHost("H2")
	s1, s2, s3, s4 := dia.AddSwitch("S1"), dia.AddSwitch("S2"), dia.AddSwitch("S3"), dia.AddSwitch("S4")
	for _, l := range [][2]topology.NodeID{{h1, s1}, {s1, s2}, {s1, s3}, {s2, s4}, {s3, s4}, {s4, h2}} {
		dia.AddLink(l[0], l[1], lp.Capacity, lp.Delay)
	}
	diaTab := routing.NewSPF(dia)
	dia.FailLinkBetween("S3", "S4")
	if g, _ := checkClosure(t, "dead branch", dia, diaTab, nil, true); g.NumChannels() != 4 {
		t.Fatalf("dead branch: %d channels, want S1->S2, S2->S4 and their reverses", g.NumChannels())
	}

	// The same on a fabric: routes that still resolve are recorded, the
	// dead-ended ones are not. H0's only link fails too, so H0 must not
	// stand for H1, the other host of its switch, which stays routed.
	fab := topology.FatTree(4, lp)
	staleFab := routing.NewSPF(fab)
	fab.FailLinkBetween("E1", "A1")
	fab.FailLinkBetween("A3", "C1")
	fab.FailLinkBetween("H0", "E1")
	for _, racks := range [](func(topology.NodeID) int){nil, workload.EdgeRacks(fab), parityRacks} {
		checkClosure(t, "stale fabric", fab, staleFab, racks, true)
	}

	// The converse: H2's link was down when the table was built and is up
	// again, so the table routes nothing toward H2, and H2 must not stand
	// for H3 either.
	healed := topology.FatTree(4, lp)
	healed.FailLinkBetween("H2", "E2")
	healedTab := routing.NewSPF(healed)
	healed.Ports(healed.MustLookup("H2"))[0].Link.Failed = false
	checkClosure(t, "healed host link", healed, healedTab, workload.EdgeRacks(healed), true)

	// Racks that split a switch: H1 alone in one rack, every other host in
	// another. H0 and H1 share E1 but not their sources — H0's only source
	// is H1 — so H0 must not stand for H1.
	split := topology.FatTree(4, lp)
	lone := split.MustLookup("H1")
	loneRack := func(n topology.NodeID) int {
		if n == lone {
			return 1
		}
		return 0
	}
	checkClosure(t, "split rack", split, routing.NewSPF(split), loneRack, true)

	// Multi-homed hosts: M1 hangs off two edge switches of different pods,
	// M2 off one edge switch by two links. Each keeps a walk of its own.
	multi := topology.FatTree(4, lp)
	m1, m2 := multi.AddHost("M1"), multi.AddHost("M2")
	multi.AddLink(m1, multi.MustLookup("E1"), lp.Capacity, lp.Delay)
	multi.AddLink(m1, multi.MustLookup("E8"), lp.Capacity, lp.Delay)
	multi.AddLink(m2, multi.MustLookup("E4"), lp.Capacity, lp.Delay)
	multi.AddLink(m2, multi.MustLookup("E4"), lp.Capacity, lp.Delay)
	multi.FailRandomLinks(rand.New(rand.NewSource(3)), 0.2)
	for _, racks := range [](func(topology.NodeID) int){nil, workload.EdgeRacks(multi), parityRacks} {
		checkClosure(t, "multi-homed", multi, routing.NewSPF(multi), racks, true)
	}
}

// TestFromAllPairsCoversGeneratedPaths closes the gap between the analysis
// and the run: every path a workload.Generator routes its flows along (each
// under its own routing.GeneratedFlowKey) has its dependencies inside
// FromAllPairs for that topology. Small flows chain quickly, so a short run
// routes hundreds of keys per fabric; some of those paths must also fall
// outside the old one-key-per-pair sample, or the property proves nothing the
// sample did not.
func TestFromAllPairsCoversGeneratedPaths(t *testing.T) {
	outsideSample := 0
	for seed := int64(0); seed < 24; seed++ {
		k := 4
		if seed%8 == 7 {
			k = 8
		}
		topo := topology.FatTree(k, topology.DefaultLinkParams())
		topo.FailRandomLinks(rand.New(rand.NewSource(seed)), 0.15)
		tab := routing.NewSPF(topo)
		racks := workload.EdgeRacks(topo)
		net, err := netsim.New(topo, netsim.Config{
			BufferSize:  300 * units.KB,
			FlowControl: flowcontrol.NewGFCBuffer(flowcontrol.GFCBufferConfig{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(net, tab, workload.Uniform(4*units.KB), racks, seed)
		gen.FlowsPerHost = 4
		if err := gen.Start(); err != nil {
			t.Fatal(err)
		}
		net.Run(200 * units.Microsecond)
		run := NewGraph(topo)
		for _, f := range net.Flows() {
			run.AddPath(f.Path)
		}
		name := fmt.Sprintf("k=%d seed=%d (%d flows)", k, seed, len(net.Flows()))
		if len(net.Flows()) <= 4*len(topo.Hosts()) {
			t.Fatalf("%s: no flow chained, so the run routed no key past its first", name)
		}
		if m := missing(FromAllPairs(topo, tab, racks), run); m != "" {
			t.Fatalf("%s: a generated path's %s is not in FromAllPairs", name, m)
		}
		if missing(referenceSampled(topo, tab, racks), run) != "" {
			outsideSample++
		}
	}
	if outsideSample == 0 {
		t.Fatal("every generated path was in the one-key sample: the fixtures miss the soundness gap")
	}
}

// TestFromAllPairsAllocs is the allocation gate: the closure allocates per
// graph (vertex and successor lists, the routing rows, its scratch), never per
// host pair or per destination — a healthy k=8 fat-tree has 16 256 ordered
// host pairs.
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
