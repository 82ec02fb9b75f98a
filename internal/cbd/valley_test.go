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

// censusAgrees holds the census to the graph it stands in for on topo, a
// FatTree(k) with failed links: topo has a valley pair exactly when
// FromAllPairs' graph (edge racks, as the sweep builds it) turns down→up, and
// a cyclic graph has one. It returns the valley verdict and the graph.
func censusAgrees(t *testing.T, name string, k int, topo *topology.Topology) (bool, *Graph) {
	t.Helper()
	valley := FatTreeMaskOf(topo, k).HasValley()
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
			valley, g := censusAgrees(t, fmt.Sprintf("k=%d seed=%d", k, seed), k, topo)
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
	valley, g := censusAgrees(t, "case study", 4, study)
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
	if valley, _ := censusAgrees(t, "isolated edge", 4, fixture("E1", "A1", "E1", "A2")); valley {
		t.Fatal("isolated edge: an unreachable edge counted as a valley pair")
	}

	// Pod 0 cut in two: E1 keeps only A1, E2 only A2, so they meet only
	// through another pod, down and up again.
	if valley, _ := censusAgrees(t, "pod cut", 4, fixture("E1", "A2", "E2", "A1")); !valley {
		t.Fatal("pod cut: two edges of one pod without a shared agg are no valley pair")
	}

	// A failed host link (what a spec's fail_links does to "H0-E1") removes a
	// host, not a switch path: no valley pair.
	if valley, _ := censusAgrees(t, "host link", 4, fixture("H0", "E1")); valley {
		t.Fatal("host link: a failed host link made a valley pair")
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
// the drawn mask is the one FatTreeMaskOf reads from the built tree, bit for
// bit, so the two agree on the census.
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
		read := FatTreeMaskOf(topo, k)
		if !slices.Equal(mask.up, read.up) || !slices.Equal(mask.core, read.core) {
			t.Fatalf("k=%d p=%v seed=%d: the drawn mask differs from the one read off the built tree", k, p, seed)
		}
	})
}
