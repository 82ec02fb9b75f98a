// Package cbd analyses Cyclic Buffer Dependencies — the *circular wait*
// condition of network deadlock (§2.1). The buffer-dependency graph has one
// vertex per directed switch-to-switch channel (an ingress buffer) and an
// edge from channel u to channel v when some flow path arrives at a switch
// over u and departs over v. A cycle in this graph is a CBD; the Table 1
// sweep uses this analysis to pre-filter deadlock-prone topologies exactly
// as the paper describes (§6.2.3).
package cbd

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
)

// Channel is a directed use of a link: traffic flowing From -> To. It names
// one ingress buffer (the buffer on To's side of the link).
type Channel struct {
	From, To topology.NodeID
}

func (c Channel) String() string { return fmt.Sprintf("%d->%d", c.From, c.To) }

// Graph is a buffer-dependency graph. Vertices are numbered in the order
// their channels are first recorded.
type Graph struct {
	topo *topology.Topology
	// vert maps a channel's dense id (2*Link.ID, +1 for the B -> A
	// direction) to its vertex number + 1; 0 means not yet seen.
	vert  []int32
	names []Channel
	// succ[u] lists u's successors once each, in the order first recorded.
	// Out-degree is bounded by the radix of the switch the channel enters,
	// so duplicates are found by scanning and each list is carved at that
	// capacity from arena, a chunk shared by many vertices.
	succ  [][]int
	arena []int
}

// NewGraph returns an empty dependency graph over t.
func NewGraph(t *topology.Topology) *Graph {
	return &Graph{topo: t, vert: make([]int32, 2*t.NumLinks())}
}

// vertex returns the vertex of the channel leaving from over l, adding it on
// first sight.
func (g *Graph) vertex(from topology.NodeID, l *topology.Link) int {
	id := 2 * int(l.ID)
	if from != l.A {
		id++
	}
	if v := g.vert[id]; v > 0 {
		return int(v) - 1
	}
	to := l.Other(from)
	deg := len(g.topo.Ports(to))
	if cap(g.arena)-len(g.arena) < deg {
		g.arena = make([]int, 0, max(deg, 1024))
	}
	n := len(g.arena)
	g.arena = g.arena[:n+deg]
	g.names = append(g.names, Channel{From: from, To: to})
	g.succ = append(g.succ, g.arena[n:n:n+deg])
	g.vert[id] = int32(len(g.names))
	return len(g.names) - 1
}

func (g *Graph) hasEdge(u, v int) bool {
	for _, w := range g.succ[u] {
		if w == v {
			return true
		}
	}
	return false
}

// AddPath records the buffer dependencies induced by one forwarding path.
// Host-attached channels cannot participate in a cycle (hosts sink or source
// traffic), so the dependency graph only tracks switch-to-switch buffers.
func (g *Graph) AddPath(path []routing.Hop) {
	prev := -1
	for _, h := range path {
		if g.topo.Node(h.Node).Kind != topology.Switch ||
			g.topo.Node(h.Link.Other(h.Node)).Kind != topology.Switch {
			prev = -1
			continue
		}
		v := g.vertex(h.Node, h.Link)
		if prev >= 0 && !g.hasEdge(prev, v) {
			g.succ[prev] = append(g.succ[prev], v)
		}
		prev = v
	}
}

// NumChannels reports the number of switch-to-switch channels seen so far.
func (g *Graph) NumChannels() int { return len(g.names) }

// HasCycle reports whether the dependency graph contains a cycle, i.e.
// whether the recorded paths can form a CBD.
func (g *Graph) HasCycle() bool { return len(g.FindCycle()) > 0 }

// FindCycle returns the channels of one dependency cycle, or nil when the
// graph is acyclic. The cycle is returned in traversal order.
func (g *Graph) FindCycle() []Channel {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(g.names))
	parent := make([]int, len(g.names))
	for i := range parent {
		parent[i] = -1
	}
	var cycleFrom, cycleTo = -1, -1
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = grey
		for _, v := range g.succ[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				cycleFrom, cycleTo = u, v
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := range g.names {
		if color[u] == white && dfs(u) {
			break
		}
	}
	if cycleFrom < 0 {
		return nil
	}
	// Walk parents from cycleFrom back to cycleTo.
	var rev []Channel
	for u := cycleFrom; ; u = parent[u] {
		rev = append(rev, g.names[u])
		if u == cycleTo {
			break
		}
	}
	out := make([]Channel, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// FromAllPairs builds the dependency graph induced by routing every
// inter-rack host pair of t under tab (the union over the workload's
// possible flows), each pair keyed by FlowKey. Pairs whose route does not
// resolve end to end (destination unrouted or unreachable) contribute
// nothing. rackOf groups hosts; pass nil to consider all ordered host pairs.
//
// The walk is destination-major — ascending destination, then ascending
// source, then path order — so the next-hop rows toward a destination are
// built once and shared by every source; that order is also the graph's
// vertex numbering.
func FromAllPairs(t *topology.Topology, tab *routing.Table, rackOf func(topology.NodeID) int) *Graph {
	g := NewGraph(t)
	hosts := t.Hosts()
	rows := tab.Rows()
	var (
		path []routing.Hop
		ok   bool
	)
	for _, dst := range hosts {
		if !rows.Toward(dst) {
			continue
		}
		for _, src := range hosts {
			if src == dst || (rackOf != nil && rackOf(src) == rackOf(dst)) {
				continue
			}
			if path, ok = rows.AppendPath(path[:0], src, FlowKey(src, dst)); ok {
				g.AddPath(path)
			}
		}
	}
	return g
}

// FlowKey is the ECMP key FromAllPairs routes the (src, dst) pair under. It
// makes the analysis one deterministic sample of the equal-cost choices, not
// the simulator's: workload.Generator keys every flow with
// routing.GeneratedFlowKey, so a simulated flow may take a different shortest
// path than the one analysed for its pair. The sample is also
// narrower than it looks: Table.NextHop hashes flowKey ^ n<<32 ^ dst, and
// the dst in this key's low word cancels that term, so at node n a source's
// hash is the same toward every destination. Both behaviours are pinned by
// the Table 1 goldens and TestClos1024Golden; ROADMAP's correctness item (b)
// records the conservative alternative (the union of all shortest paths).
func FlowKey(src, dst topology.NodeID) uint64 {
	return uint64(src)<<32 | uint64(uint32(dst))
}
