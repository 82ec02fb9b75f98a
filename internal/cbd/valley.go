package cbd

import (
	"fmt"
	"math/bits"

	"github.com/gfcsim/gfc/internal/topology"
)

// ValleyFree runs the census of a fat-tree's failed links on t: it reports
// whether t is wired exactly as topology.FatTree builds it and has no valley
// pair, two edge switches joined by live switch links but by no live
// up-then-down path (in one pod, no agg both reach; across pods, no
// edge–agg–core–agg–edge). It reads t's Layer and Pod tags and which links
// failed into a FatTreeMask, no routing, and asks its HasValley. It
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
	m := readFatTree(t)
	return m != nil && !m.HasValley()
}

// FatTreeMask is the census' view of a k-ary fat-tree: which of its switch
// links are live, as bitmasks. ValleyFree reads one from a built topology; a
// sweep fills one from topology.DrawFatTreeFailures and builds the tree only
// when HasValley says the network may be CBD-prone.
type FatTreeMask struct {
	half int
	// up[e] has bit j set when edge e (pod·half + index in pod) has a live
	// link to its pod's agg j; core[a] has bit c when agg a (numbered
	// likewise) has one to core c of its group.
	up, core []uint64
}

// NewFatTreeMask returns the mask of a healthy FatTree(k), every link live.
// k must be even, 2 ≤ k ≤ 128.
func NewFatTreeMask(k int) *FatTreeMask {
	half := k / 2
	if k%2 != 0 || half < 1 || half > 64 {
		panic(fmt.Sprintf("cbd: no fat-tree mask for arity k = %d", k))
	}
	all := uint64(1)<<half - 1
	masks := make([]uint64, 4*half*half)
	for i := range masks {
		masks[i] = all
	}
	return &FatTreeMask{half: half, up: masks[:2*half*half], core: masks[2*half*half:]}
}

// Fail marks l failed.
func (m *FatTreeMask) Fail(l topology.FatTreeLink) {
	i := l.Pod*m.half + l.Lower
	if l.Core {
		m.core[i] &^= 1 << l.Upper
	} else {
		m.up[i] &^= 1 << l.Upper
	}
}

// Live reports whether l is live.
func (m *FatTreeMask) Live(l topology.FatTreeLink) bool {
	i := l.Pod*m.half + l.Lower
	if l.Core {
		return m.core[i]&(1<<l.Upper) != 0
	}
	return m.up[i]&(1<<l.Upper) != 0
}

// readFatTree reads t's live switch links from its Layer and Pod tags, or
// returns nil when t is not wired exactly as topology.FatTree builds it.
func readFatTree(t *topology.Topology) *FatTreeMask {
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
	m := &FatTreeMask{half: half, up: make([]uint64, 2*half*half), core: make([]uint64, 2*half*half)}
	id := func(v topology.NodeID) int { return t.Node(v).Pod*half + ord[v] }
	// wired mirrors up and core over every link, failed or not: a bit set
	// twice is a doubled link, a bit never set a missing one.
	wiredUp, wiredCore := make([]uint64, len(m.up)), make([]uint64, len(m.core))
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
			wired, live, bit = &wiredUp[id(a)], &m.up[id(a)], 1<<ord[b]
		case layer[a] == agg && layer[b] == core && ord[b]/half == ord[a]:
			wired, live, bit = &wiredCore[id(a)], &m.core[id(a)], 1<<(ord[b]%half)
		default:
			return nil
		}
		if *wired&bit != 0 {
			return nil
		}
		*wired |= bit
		if !l.Failed {
			*live |= bit
		}
	}
	all := uint64(1)<<half - 1
	for i := range wiredUp {
		if wiredUp[i] != all || wiredCore[i] != all {
			return nil
		}
	}
	return m
}

// HasValley reports whether two edges joined by live switch links lack a
// live up-then-down path between them: a valley pair. Without one, the
// fat-tree is CBD-free under shortest-path routing (ValleyFree).
func (m *FatTreeMask) HasValley() bool {
	reach, w := m.coreReach()
	var root []int32 // the live switch links' components, read only for a pair that fails
	for e := range m.up {
		podEnd := (e/m.half + 1) * m.half
		for g := e + 1; g < len(m.up); g++ {
			if m.valleyFree(reach, w, e, g, g < podEnd) {
				continue
			}
			if root == nil {
				root = m.components()
			}
			if find(root, int32(e)) == find(root, int32(g)) {
				return true
			}
		}
	}
	return false
}

// coreReach returns, w words per edge, the cores each edge reaches up its
// live links: bit j·half + c for core c of agg j's group. Core c of group j
// is wired only to agg j of every pod, so two edges of different pods share
// a reached core exactly when they have an up-then-down path through it.
func (m *FatTreeMask) coreReach() (reach []uint64, w int) {
	h := m.half
	w = (h*h + 63) / 64
	reach = make([]uint64, len(m.up)*w)
	for e, up := range m.up {
		row, aggs := reach[e*w:e*w+w], m.core[e/h*h:e/h*h+h]
		for ; up != 0; up &= up - 1 {
			j := bits.TrailingZeros64(up)
			at := uint(j * h)
			row[at/64] |= aggs[j] << (at % 64)
			if spill := at%64 + uint(h); spill > 64 {
				row[at/64+1] |= aggs[j] >> (64 - at%64)
			}
		}
	}
	return reach, w
}

// valleyFree reports whether edges e and g (of one pod when samePod) have a
// live up-then-down path: in one pod, a shared live agg; across pods, a core
// both reach.
func (m *FatTreeMask) valleyFree(reach []uint64, w, e, g int, samePod bool) bool {
	if samePod {
		return m.up[e]&m.up[g] != 0
	}
	re, rg := reach[e*w:e*w+w], reach[g*w:g*w+w]
	for i := range re {
		if re[i]&rg[i] != 0 {
			return true
		}
	}
	return false
}

// components returns a union-find forest over the switches joined by live
// links: edges e at e, aggs a at 2·half² + a, cores j·half + c at 4·half² +
// j·half + c.
func (m *FatTreeMask) components() []int32 {
	h := m.half
	aggs, cores := int32(2*h*h), int32(4*h*h)
	root := make([]int32, 5*h*h)
	for v := range root {
		root[v] = int32(v)
	}
	union := func(a, b int32) { root[find(root, a)] = find(root, b) }
	for e, up := range m.up {
		for ; up != 0; up &= up - 1 {
			union(int32(e), aggs+int32(e/h*h+bits.TrailingZeros64(up)))
		}
	}
	for a, cs := range m.core {
		for ; cs != 0; cs &= cs - 1 {
			union(aggs+int32(a), cores+int32(a%h*h+bits.TrailingZeros64(cs)))
		}
	}
	return root
}

func find(root []int32, v int32) int32 {
	for root[v] != v {
		root[v] = root[root[v]]
		v = root[v]
	}
	return v
}
