package cbd

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
)

func TestRingHasCBD(t *testing.T) {
	topo := topology.Ring(3, topology.DefaultLinkParams())
	g := NewGraph(topo)
	for _, p := range routing.RingHostsClockwisePaths(topo, 3, 1) {
		g.AddPath(p)
	}
	if !g.HasCycle() {
		t.Fatal("Figure 1 ring traffic must form a CBD")
	}
	cyc := g.FindCycle()
	if len(cyc) != 3 {
		t.Fatalf("cycle length = %d, want 3 channels", len(cyc))
	}
	// The cycle must chain: each channel's To is the next channel's From.
	for i := range cyc {
		next := cyc[(i+1)%len(cyc)]
		if cyc[i].To != next.From {
			t.Fatalf("cycle does not chain: %v", cyc)
		}
	}
}

func TestSingleFlowNoCBD(t *testing.T) {
	topo := topology.Ring(3, topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	h1 := topo.MustLookup("H1")
	h2 := topo.MustLookup("H2")
	p, err := tab.Path(h1, h2, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(topo)
	g.AddPath(p)
	if g.HasCycle() {
		t.Fatal("single acyclic flow reported as CBD")
	}
	if g.FindCycle() != nil {
		t.Fatal("FindCycle returned non-nil for acyclic graph")
	}
}

func TestLinearChainNoCBD(t *testing.T) {
	topo := topology.Linear(5, topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	hosts := topo.Hosts()
	g := NewGraph(topo)
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			p, err := tab.Path(src, dst, flowKey(src, dst))
			if err != nil {
				t.Fatal(err)
			}
			g.AddPath(p)
		}
	}
	if g.HasCycle() {
		t.Fatal("linear chain cannot have a CBD")
	}
}

func TestHealthyFatTreeNoCBD(t *testing.T) {
	// Fat-tree with up-down routing and no failures is CBD-free: SPF
	// paths go up then down, never down-up-down.
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	g := FromAllPairs(topo, tab, nil)
	if g.HasCycle() {
		t.Fatalf("healthy fat-tree reported CBD; cycle=%v", g.FindCycle())
	}
	if g.NumChannels() == 0 {
		t.Fatal("no channels recorded")
	}
}

// StronglyConnected is the reference HasCycle is checked against (Tarjan): it
// returns the nontrivial strongly connected components of the dependency
// graph (size >= 2, or a single vertex with a self-loop),
// each sorted for determinism. Every CBD lies inside one of these.
func (g *Graph) StronglyConnected() [][]Channel {
	n := len(g.names)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var next int
	var comps [][]Channel

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.succ[v] {
			if index[w] < 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			keep := len(comp) >= 2
			if !keep && len(comp) == 1 {
				keep = g.hasEdge(comp[0], comp[0])
			}
			if keep {
				chans := make([]Channel, len(comp))
				for i, u := range comp {
					chans[i] = g.names[u]
				}
				sort.Slice(chans, func(i, j int) bool {
					if chans[i].From != chans[j].From {
						return chans[i].From < chans[j].From
					}
					return chans[i].To < chans[j].To
				})
				comps = append(comps, chans)
			}
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			strongconnect(v)
		}
	}
	return comps
}

func TestStronglyConnected(t *testing.T) {
	topo := topology.Ring(4, topology.DefaultLinkParams())
	g := NewGraph(topo)
	for _, p := range routing.RingHostsClockwisePaths(topo, 4, 1) {
		g.AddPath(p)
	}
	comps := g.StronglyConnected()
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1", len(comps))
	}
	if len(comps[0]) != 4 {
		t.Fatalf("component size = %d, want 4", len(comps[0]))
	}
}

func TestStronglyConnectedEmpty(t *testing.T) {
	topo := topology.Linear(3, topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	g := FromAllPairs(topo, tab, nil)
	if comps := g.StronglyConnected(); len(comps) != 0 {
		t.Fatalf("acyclic graph has %d SCCs", len(comps))
	}
}

func TestRackFilter(t *testing.T) {
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	// Group all hosts into one rack: no pairs at all.
	g := FromAllPairs(topo, tab, func(topology.NodeID) int { return 0 })
	if g.NumChannels() != 0 {
		t.Fatalf("rack filter ignored: %d channels", g.NumChannels())
	}
}

func TestDuplicateEdgesIgnored(t *testing.T) {
	topo := topology.Ring(3, topology.DefaultLinkParams())
	g := NewGraph(topo)
	paths := routing.RingHostsClockwisePaths(topo, 3, 1)
	for i := 0; i < 5; i++ { // add same paths repeatedly
		for _, p := range paths {
			g.AddPath(p)
		}
	}
	if got := g.NumChannels(); got != 3 {
		t.Fatalf("channels = %d, want 3 (deduplicated)", got)
	}
}

// TestCycle pins Searcher.Cycle's search order: the cycle returned is the
// first the depth-first search closes, starting from each vertex in index
// order. One searcher reused across the graphs, its scratch left from the
// last, answers as a fresh one does.
func TestCycle(t *testing.T) {
	var reused Searcher
	for _, tc := range []struct {
		name string
		succ [][]int
		want []int
	}{
		{"acyclic", [][]int{{1, 2}, {2}, {}}, nil},
		{"self-loop", [][]int{{1}, {1}}, []int{1}},
		{"two disjoint cycles", [][]int{{1}, {2}, {0}, {4}, {3}}, []int{0, 1, 2}},
		// Vertex 0 leads into the cycle 3→4, which closes before 1→2 is
		// searched, though 1 and 2 have lower indices.
		{"tail into the later cycle", [][]int{{3}, {2}, {1}, {4}, {3}}, []int{3, 4}},
	} {
		for _, s := range []*Searcher{new(Searcher), &reused} {
			succ := func(u int) []int { return tc.succ[u] }
			if got := s.Cycle(len(tc.succ), succ); !slices.Equal(got, tc.want) || (got == nil) != (tc.want == nil) {
				t.Errorf("%s: Cycle = %v, want %v", tc.name, got, tc.want)
			}
		}
	}
}

// Property: FindCycle agrees with HasCycle, and any returned cycle is a real
// cycle in the graph built from random fat-tree failure scenarios.
func TestFindCycleConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := topology.FatTree(4, topology.DefaultLinkParams())
		topo.FailRandomLinks(rng, 0.08)
		tab := routing.NewSPF(topo)
		g := FromAllPairs(topo, tab, nil)
		cyc := g.FindCycle()
		if (cyc != nil) != g.HasCycle() {
			return false
		}
		if cyc == nil {
			return true
		}
		if len(cyc) < 2 {
			return false
		}
		for i := range cyc {
			next := cyc[(i+1)%len(cyc)]
			if cyc[i].To != next.From {
				return false
			}
		}
		// Channels in the cycle must be switch-switch.
		for _, c := range cyc {
			if topo.Node(c.From).Kind != topology.Switch ||
				topo.Node(c.To).Kind != topology.Switch {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a cycle implies a nontrivial SCC and vice versa.
func TestCycleIffSCC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := topology.FatTree(4, topology.DefaultLinkParams())
		topo.FailRandomLinks(rng, 0.08)
		tab := routing.NewSPF(topo)
		g := FromAllPairs(topo, tab, nil)
		return g.HasCycle() == (len(g.StronglyConnected()) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFlowKeyDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for s := topology.NodeID(0); s < 50; s++ {
		for d := topology.NodeID(0); d < 50; d++ {
			k := flowKey(s, d)
			if seen[k] {
				t.Fatalf("flowKey collision at %d,%d", s, d)
			}
			seen[k] = true
		}
	}
}
