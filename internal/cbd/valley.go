package cbd

import (
	"fmt"
	"math/bits"

	"github.com/gfcsim/gfc/internal/topology"
)

// FatTreeMask is the census' view of a k-ary fat-tree: which of its switch
// links are live, as bitmasks. FatTreeMaskOf reads one from a built tree; a
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

// FatTreeMaskOf reads the live switch links of t, a FatTree(k) with some of
// its links failed, into a mask: the census of a built tree, the inverse of
// the loop that builds a drawn mask's tree.
func FatTreeMaskOf(t *topology.Topology, k int) *FatTreeMask {
	m := NewFatTreeMask(k)
	topology.FatTreeLinks(k, func(l topology.FatTreeLink) {
		if t.Link(l.ID).Failed {
			m.Fail(l)
		}
	})
	return m
}

// HasValley is the census of a fat-tree's failed links: it reports whether
// two edges joined by live switch links lack a live up-then-down path
// between them, a valley pair (in one pod, no agg both reach; across pods, no
// edge–agg–core–agg–edge). It needs no routing.
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
// built before some of the tree's links failed: a route that still resolves
// joins edges that are connected now, so valley-free now and when it was
// built. A valley pair decides nothing (3 of 43 valley networks at k=4, p =
// 0.05, are acyclic); its graph holds a down→up turn.
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
