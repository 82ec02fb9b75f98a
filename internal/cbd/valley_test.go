package cbd

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/workload"
)

// downUp reports whether g records a dependency from a channel going down
// the fat-tree's layers to one going up.
func downUp(topo *topology.Topology, g *Graph) bool {
	rank := map[string]int{"edge": 0, "agg": 1, "core": 2}
	up := func(c Channel) bool { return rank[topo.Node(c.From).Layer] < rank[topo.Node(c.To).Layer] }
	for u, succ := range g.succ {
		for _, v := range succ {
			if !up(g.names[u]) && up(g.names[v]) {
				return true
			}
		}
	}
	return false
}

// censusAgrees holds the census to the graph it stands in for on fat-tree
// topo: topo has a valley pair exactly when FromAllPairs' graph (edge racks,
// as the sweep builds it) turns down→up, and a cyclic graph has one. It
// returns the valley verdict and the graph.
func censusAgrees(t *testing.T, name string, topo *topology.Topology) (bool, *Graph) {
	t.Helper()
	f := readFatTree(topo)
	if f == nil {
		t.Fatalf("%s: the census declined a fat-tree", name)
	}
	valley := f.HasValley()
	if ValleyFree(topo) == valley {
		t.Fatalf("%s: ValleyFree = %v beside a valley verdict of %v", name, !valley, valley)
	}
	g := FromAllPairs(topo, routing.NewSPF(topo), workload.EdgeRacks(topo))
	if turn := downUp(topo, g); turn != valley {
		t.Fatalf("%s: valley pair %v, but the all-pairs graph turns down→up: %v", name, valley, turn)
	}
	if g.HasCycle() && !valley {
		t.Fatalf("%s: cyclic all-pairs graph without a valley pair", name)
	}
	return valley, g
}

// TestValleysMatchDownUpTurn is the census' specification: on random failed
// fat-trees at the sweep's p = 0.05 (seeds 1 on, drawn as GenerateScenario
// draws them), and on fixtures that place the valley where a random draw
// rarely does, a valley pair exists exactly when the all-pairs graph has a
// down→up turn, and every cyclic graph has one.
func TestValleysMatchDownUpTurn(t *testing.T) {
	seeds := map[int]int{4: 400, 8: 200, 16: 100}
	if testing.Short() {
		seeds[16] = 10
	}
	for _, k := range []int{4, 8, 16} {
		valleys, cyclic := 0, 0
		for seed := int64(1); seed <= int64(seeds[k]); seed++ {
			topo := topology.FatTree(k, topology.DefaultLinkParams())
			topo.FailRandomLinks(rand.New(rand.NewSource(seed)), 0.05)
			valley, g := censusAgrees(t, fmt.Sprintf("k=%d seed=%d", k, seed), topo)
			if valley {
				valleys++
			}
			if g.HasCycle() {
				cyclic++
			}
		}
		t.Logf("k=%d: %d of %d networks have a valley pair, %d are CBD-prone", k, valleys, seeds[k], cyclic)
		if k == 4 && (cyclic == 0 || valleys == cyclic) {
			t.Fatalf("k=4: %d valley, %d cyclic: the draws miss an acyclic valley network or a cyclic one", valleys, cyclic)
		}
	}

	lp := topology.DefaultLinkParams()
	fixture := func(fail ...string) *topology.Topology {
		topo := topology.FatTree(4, lp)
		for i := 0; i < len(fail); i += 2 {
			topo.FailLinkBetween(fail[i], fail[i+1])
		}
		return topo
	}

	// The case study's four failures (Figure 11): E1 climbs only to A1, which
	// reaches only C1; E5 climbs only to A5, which reaches only C2. Their
	// shortest path turns core→agg→core, and the graph closes a cycle.
	study := fixture("C1", "A5", "A1", "C2", "E1", "A2", "E5", "A6")
	valley, g := censusAgrees(t, "case study", study)
	if !valley || !g.HasCycle() {
		t.Fatalf("case study: valley %v, cyclic %v: want a valley pair and a CBD", valley, g.HasCycle())
	}
	coreAggCore := false
	for u, succ := range g.succ {
		for _, v := range succ {
			coreAggCore = coreAggCore || study.Node(g.names[u].From).Layer == "core" && study.Node(g.names[v].To).Layer == "core"
		}
	}
	if !coreAggCore {
		t.Fatal("case study: no core→agg→core dependency in the graph")
	}

	// E1 loses every uplink: it reaches no other edge, so it is in no
	// valley pair, and nothing else failed.
	if valley, _ := censusAgrees(t, "isolated edge", fixture("E1", "A1", "E1", "A2")); valley {
		t.Fatal("isolated edge: an unreachable edge counted as a valley pair")
	}

	// Pod 0 cut in two: E1 keeps only A1, E2 only A2, so they meet only
	// through another pod, down and up again.
	if valley, _ := censusAgrees(t, "pod cut", fixture("E1", "A2", "E2", "A1")); !valley {
		t.Fatal("pod cut: two edges of one pod without a shared agg are no valley pair")
	}

	// A failed host link (what a spec's fail_links does to "H0-E1") removes a
	// host, not a switch path: no valley pair.
	if valley, _ := censusAgrees(t, "host link", fixture("H0", "E1")); valley {
		t.Fatal("host link: a failed host link made a valley pair")
	}
}

// TestValleysDeclineOffFatTree: the census speaks only for a topology wired
// exactly as topology.FatTree builds it. On anything else it declines, and
// ValleyFree reports false so the caller runs the full scan — including
// fat-trees whose unaltered twin is valley-free.
func TestValleysDeclineOffFatTree(t *testing.T) {
	lp := topology.DefaultLinkParams()
	if !ValleyFree(topology.FatTree(4, lp)) {
		t.Fatal("a healthy fat-tree is not valley-free")
	}
	altered := func(change func(*topology.Topology)) *topology.Topology {
		topo := topology.FatTree(4, lp)
		change(topo)
		return topo
	}
	link := func(a, b string) func(*topology.Topology) {
		return func(topo *topology.Topology) {
			topo.AddLink(topo.MustLookup(a), topo.MustLookup(b), lp.Capacity, lp.Delay)
		}
	}
	for name, topo := range map[string]*topology.Topology{
		"ring":                           topology.Ring(3, lp),
		"dumbbell":                       topology.Dumbbell(4, lp),
		"edge-edge link":                 altered(link("E1", "E2")),
		"doubled uplink":                 altered(link("E1", "A1")),
		"cross-pod link":                 altered(link("E1", "A3")),
		"agg to a core of another group": altered(link("A1", "C3")),
		"multi-homed host": altered(func(topo *topology.Topology) {
			topo.AddLink(topo.MustLookup("H0"), topo.MustLookup("E2"), lp.Capacity, lp.Delay)
		}),
		"core tagged agg": altered(func(topo *topology.Topology) {
			topo.SetLayer(topo.MustLookup("C1"), "agg", 0)
		}),
		"untagged switch": altered(func(topo *topology.Topology) { topo.AddSwitch("X") }),
		"extra pod edge": altered(func(topo *topology.Topology) {
			topo.SetLayer(topo.AddSwitch("X"), "edge", 3)
		}),
	} {
		if readFatTree(topo) != nil || ValleyFree(topo) {
			t.Errorf("%s: the census did not decline", name)
		}
	}
}

// TestValleyFreeMatchesDefinition holds the census' per-edge core reach to
// the definition it stands for, at every sweep arity (k ≥ 18 packs a group's
// cores across word boundaries): edges of different pods have a live
// up-then-down path exactly when some agg index j is live for both and
// their two aggs j share a live core.
func TestValleyFreeMatchesDefinition(t *testing.T) {
	for k := 4; k <= 32; k += 2 {
		m := NewFatTreeMask(k)
		topology.DrawFatTreeFailures(k, rand.New(rand.NewSource(int64(k))), 0.3, m.Fail)
		reach, w := m.coreReach()
		h := m.half
		for e := range m.up {
			for g := (e/h + 1) * h; g < len(m.up); g++ {
				want := false
				for j := 0; j < h; j++ {
					want = want || m.up[e]&m.up[g]&(1<<j) != 0 && m.core[e/h*h+j]&m.core[g/h*h+j] != 0
				}
				if got := m.valleyFree(reach, w, e, g, false); got != want {
					t.Fatalf("k=%d edges %d, %d: valleyFree %v, definition %v", k, e, g, got, want)
				}
			}
		}
	}
}

// FuzzFatTreeDraw holds the failure-mask draw a sweep takes in place of a
// built tree to the tree: at any even k from 4 to 16, any p in [0, 1] and any
// seed, topology.DrawFatTreeFailures fails the link IDs FatTree(k) followed
// by FailRandomLinks fails, leaves the RNG where that call leaves it, and
// the census of the drawn mask is ValleyFree's verdict on the built tree.
func FuzzFatTreeDraw(f *testing.F) {
	f.Add(uint8(0), 0.05, int64(35))
	f.Add(uint8(2), 0.05, int64(1))
	f.Add(uint8(6), 0.05, int64(7))
	f.Add(uint8(0), 0.0, int64(1))
	f.Add(uint8(0), 1.0, int64(1))
	f.Add(uint8(1), 0.5, int64(-3))
	f.Fuzz(func(t *testing.T, ksel uint8, p float64, seed int64) {
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Skip("p outside [0, 1]")
		}
		k := 4 + 2*int(ksel%7)
		topo := topology.FatTree(k, topology.DefaultLinkParams())
		built := rand.New(rand.NewSource(seed))
		want := topo.FailRandomLinks(built, p)

		drawn := rand.New(rand.NewSource(seed))
		mask := NewFatTreeMask(k)
		var got []topology.LinkID
		topology.DrawFatTreeFailures(k, drawn, p, func(l topology.FatTreeLink) {
			got = append(got, l.ID)
			mask.Fail(l)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d p=%v seed=%d: drew failures %v, FailRandomLinks %v", k, p, seed, got, want)
		}
		if a, b := drawn.Int63(), built.Int63(); a != b {
			t.Fatalf("k=%d p=%v seed=%d: the draw left the RNG elsewhere than FailRandomLinks", k, p, seed)
		}
		if mask.HasValley() == ValleyFree(topo) {
			t.Fatalf("k=%d p=%v seed=%d: the drawn mask has a valley %v, ValleyFree on the tree %v",
				k, p, seed, mask.HasValley(), ValleyFree(topo))
		}
	})
}
