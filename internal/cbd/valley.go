package cbd

import (
	"math/bits"

	"github.com/gfcsim/gfc/internal/topology"
)

// ValleyFree is the census of a fat-tree's failed links: it reports whether t
// is wired exactly as topology.FatTree builds it and has no valley pair, two
// edge switches joined by live switch links but by no live up-then-down path
// (in one pod, no agg both reach; across pods, no edge–agg–core–agg–edge).
// It reads only the Layer and Pod tags and which links failed, no routing. It
// reports false, so the caller runs the full scan, for a valley pair and for
// anything else: a ring, an extra or missing link, a wrong layer count.
//
// A valley-free fat-tree cannot close a cyclic buffer dependency under
// shortest-path routing, so FromAllPairs' graph over it is acyclic. Two edges
// with a shared live agg are two hops apart, and a two-hop path between edges
// is e–a–e′. Two edges of different pods with a live e–a–c–a′–e′ path are
// four hops apart, and every four-hop path between them has that shape: an
// edge's neighbours are its own pod's aggs, and only a core joins two pods'.
// Hosts do not forward, so every shortest host-to-host path crosses a
// shortest path between its hosts' edges. Rank the channels edge→agg 0,
// agg→core 1, core→agg 2, agg→edge 3: every dependency along such a path
// raises the rank, so their union is acyclic. This holds too for a table
// built before some of t's links failed: a route that still resolves joins
// edges that are connected now, so valley-free now and when it was built. A
// valley pair decides nothing (3 of 43 valley networks at k=4, p = 0.05, are
// acyclic); its graph holds a down→up turn.
func ValleyFree(t *topology.Topology) bool {
	f := readFatTree(t)
	return f != nil && !f.hasValley()
}

// fatTree is the census' view of a fat-tree: its live uplinks as bitmasks
// and which switches its live switch links connect.
type fatTree struct {
	half int
	// up[e] has bit j set when edge e (pod*half + index in pod) has a live
	// link to its pod's agg j; core[a] has bit c when agg a has one to core
	// c of its group.
	up, core []uint64
	edges    []topology.NodeID // by edge number
	root     []int32           // union-find over live switch links
}

// readFatTree reads t's shape from its Layer and Pod tags, or returns nil when
// t is not wired exactly as topology.FatTree builds it.
func readFatTree(t *topology.Topology) *fatTree {
	n := t.NumNodes()
	const edge, agg, core = 0, 1, 2
	layer := make([]int8, n)
	ord := make([]int, n) // index among the pod's (or all cores') layer
	var pods [][2]int
	cores := 0
	for v := range n {
		node := t.Node(topology.NodeID(v))
		switch {
		case node.Kind == topology.Host:
			if len(t.Ports(node.ID)) != 1 {
				return nil
			}
			layer[v] = -1
		case node.Layer == "core":
			layer[v], ord[v] = core, cores
			cores++
		case (node.Layer == "edge" || node.Layer == "agg") && node.Pod >= 0:
			for len(pods) <= node.Pod {
				pods = append(pods, [2]int{})
			}
			layer[v] = edge
			if node.Layer == "agg" {
				layer[v] = agg
			}
			ord[v] = pods[node.Pod][layer[v]]
			pods[node.Pod][layer[v]]++
		default:
			return nil
		}
	}
	half := len(pods) / 2
	if half == 0 || half > 64 || len(pods) != 2*half || cores != half*half {
		return nil
	}
	for _, p := range pods {
		if p != [2]int{half, half} {
			return nil
		}
	}
	f := &fatTree{
		half: half, up: make([]uint64, 2*half*half), core: make([]uint64, 2*half*half),
		edges: make([]topology.NodeID, 2*half*half), root: make([]int32, n),
	}
	id := func(v topology.NodeID) int { return t.Node(v).Pod*half + ord[v] }
	for v := range n {
		f.root[v] = int32(v)
		if layer[v] == edge {
			f.edges[id(topology.NodeID(v))] = topology.NodeID(v)
		}
	}
	// wired mirrors up and core over every link, failed or not: a bit set
	// twice is a doubled link, a bit never set a missing one.
	wiredUp, wiredCore := make([]uint64, len(f.up)), make([]uint64, len(f.core))
	for i := range t.NumLinks() {
		l := t.Link(topology.LinkID(i))
		a, b := l.A, l.B
		if layer[a] > layer[b] {
			a, b = b, a
		}
		var wired, live *uint64
		var bit uint64
		switch {
		case layer[a] == -1 && layer[b] == edge:
			continue
		case layer[a] == edge && layer[b] == agg && t.Node(a).Pod == t.Node(b).Pod:
			wired, live, bit = &wiredUp[id(a)], &f.up[id(a)], 1<<ord[b]
		case layer[a] == agg && layer[b] == core && ord[b]/half == ord[a]:
			wired, live, bit = &wiredCore[id(a)], &f.core[id(a)], 1<<(ord[b]%half)
		default:
			return nil
		}
		if *wired&bit != 0 {
			return nil
		}
		*wired |= bit
		if !l.Failed {
			*live |= bit
			f.root[f.find(a)] = int32(f.find(b))
		}
	}
	all := uint64(1)<<half - 1
	for i := range wiredUp {
		if wiredUp[i] != all || wiredCore[i] != all {
			return nil
		}
	}
	return f
}

func (f *fatTree) find(v topology.NodeID) topology.NodeID {
	for f.root[v] != int32(v) {
		f.root[v] = f.root[f.root[v]]
		v = topology.NodeID(f.root[v])
	}
	return v
}

// hasValley reports whether two connected edges lack a valley-free path.
func (f *fatTree) hasValley() bool {
	for e := range f.edges {
		for g := e + 1; g < len(f.edges); g++ {
			if f.find(f.edges[e]) == f.find(f.edges[g]) && !f.valleyFree(e, g) {
				return true
			}
		}
	}
	return false
}

// valleyFree reports whether edges e and g have a live up-then-down path: in
// one pod, a shared live agg; across pods, an agg index j live for both whose
// two aggs share a live core.
func (f *fatTree) valleyFree(e, g int) bool {
	pe, pg := e/f.half, g/f.half
	shared := f.up[e] & f.up[g]
	if pe == pg {
		return shared != 0
	}
	for ; shared != 0; shared &= shared - 1 {
		j := bits.TrailingZeros64(shared)
		if f.core[pe*f.half+j]&f.core[pg*f.half+j] != 0 {
			return true
		}
	}
	return false
}
