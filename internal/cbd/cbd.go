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
	"slices"

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

// addEdge records the dependency u -> v once.
func (g *Graph) addEdge(u, v int) {
	if !g.hasEdge(u, v) {
		g.succ[u] = append(g.succ[u], v)
	}
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
		if prev >= 0 {
			g.addEdge(prev, v)
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
	var out []Channel
	for _, u := range new(Searcher).Cycle(len(g.succ), func(u int) []int { return g.succ[u] }) {
		out = append(out, g.names[u])
	}
	return out
}

// Searcher finds cycles in directed graphs, keeping its scratch: once grown
// to the graph, a search that finds no cycle allocates nothing. Its Cycle
// returns the vertices of one cycle of the graph of n vertices whose vertex u
// has successors succ(u), in traversal order (each vertex's successor is the
// next), or nil when the graph is acyclic. The depth-first search starts
// from each vertex in index order and follows each successor list in order,
// so the cycle it returns is the first one that search closes.
type Searcher struct{ color, parent []int }

// Cycle returns the first cycle the search closes, or nil.
func (s *Searcher) Cycle(n int, succ func(u int) []int) []int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	s.color = slices.Grow(s.color[:0], n)[:n]
	clear(s.color) // all white
	s.parent = slices.Grow(s.parent[:0], n)[:n]
	color, parent := s.color, s.parent
	from, to := -1, -1
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = grey
		for _, v := range succ(u) {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				from, to = u, v
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := range n {
		if color[u] == white && dfs(u) {
			break
		}
	}
	if from < 0 {
		return nil
	}
	// Walk parents from the closing vertex back to where the cycle entered.
	var cycle []int
	for u := from; ; u = parent[u] {
		cycle = append(cycle, u)
		if u == to {
			break
		}
	}
	slices.Reverse(cycle)
	return cycle
}

// FromAllPairs builds the dependency graph of every shortest path between
// inter-rack host pairs of t under tab: the union over all the flows a
// workload may start, whatever ECMP key each is hashed under, so a run's
// paths are always a subgraph of it. A route that does not resolve end to end
// (destination unrouted or unreachable, or a stale table's route dead-ending
// at a link that failed after it was built) contributes nothing. rackOf groups
// hosts; pass nil to consider all ordered host pairs.
//
// It is built per destination d from the next-hop DAG toward d
// (routing.Rows), never per pair. A node takes part when an inter-rack source
// reaches it along next hops and d is reachable from it. Every channel u->v
// between two such switches is recorded, with an edge to each channel v->w
// toward d between such switches. Hosts that hang off the same node by their
// one link and share a rack (with rackOf nil, none do) have the same DAG on
// every switch and the same sources, so only the first of them is walked (128
// walks, not 1 024, on a k=16 fat-tree). Vertices are numbered in walk order:
// ascending walked destination, then depth-first post-order from the sources.
func FromAllPairs(t *topology.Topology, tab *routing.Table, rackOf func(topology.NodeID) int) *Graph {
	n := t.NumNodes()
	c := &closure{
		g: NewGraph(t), rows: tab.Rows(), seen: make([]int32, n), live: make([]int32, n),
		chans: make([]int, 0, 2*t.NumLinks()), span: make([][2]int32, n),
	}
	// walked[s] is 1 + the last single-homed destination on s that was
	// walked; 0 when none was.
	walked := make([]topology.NodeID, n)
	hosts := t.Hosts()
	for _, d := range hosts {
		home, single := homeOf(t, tab, d)
		if single && rackOf != nil && walked[home] > 0 && rackOf(walked[home]-1) == rackOf(d) {
			continue
		}
		if !c.rows.Toward(d) {
			continue
		}
		if single {
			walked[home] = d + 1
		}
		c.dst = d
		c.walk++
		c.chans = c.chans[:0]
		for _, src := range hosts {
			if src != d && (rackOf == nil || rackOf(src) != rackOf(d)) {
				c.visit(src)
			}
		}
	}
	return c.g
}

// homeOf returns the node host d hangs off by its only link, when that link
// is live and tab's row toward d was built through it. Then tab's distances
// toward d and toward any other such host of the node agree on every switch,
// and so do their next hops between switches.
func homeOf(t *topology.Topology, tab *routing.Table, d topology.NodeID) (topology.NodeID, bool) {
	ports := t.Ports(d)
	if len(ports) != 1 || ports[0].Link.Failed {
		return topology.None, false
	}
	if hops, ok := tab.Distance(ports[0].Peer, d); !ok || hops != 1 {
		return topology.None, false
	}
	return ports[0].Peer, true
}

// closure is FromAllPairs' scratch, reused across destinations.
type closure struct {
	g    *Graph
	rows *routing.Rows
	dst  topology.NodeID
	// walk numbers the current destination's walk: seen[n] == walk once a
	// source reached n, live[n] == walk when dst is reachable from n too.
	walk       int32
	seen, live []int32
	// chans[span[n][0]:span[n][1]] are the vertices of the channels a live
	// switch n recorded in the current walk, in row order.
	chans []int
	span  [][2]int32
}

// visit reaches n along next hops toward c.dst and reports whether c.dst is
// reachable from it. Once n's successors are resolved it records, if n is a
// live switch, its live channels and their dependencies. Next hops strictly
// shorten the distance to c.dst, so the recursion is no deeper than a path,
// and every live switch of n's row has recorded its own channels already:
// n's channel into it depends on exactly those.
func (c *closure) visit(n topology.NodeID) bool {
	if c.seen[n] == c.walk {
		return c.live[n] == c.walk
	}
	c.seen[n] = c.walk
	live := n == c.dst
	row := c.rows.Row(n)
	for _, at := range row {
		if c.visit(at.Peer) {
			live = true
		}
	}
	if !live {
		return false
	}
	c.live[n] = c.walk
	if c.g.topo.Node(n).Kind != topology.Switch {
		return true
	}
	lo := len(c.chans)
	for _, uv := range row {
		if !c.liveSwitch(uv.Peer) {
			continue
		}
		u := c.g.vertex(n, uv.Link)
		vw := c.span[uv.Peer]
		for _, v := range c.chans[vw[0]:vw[1]] {
			c.g.addEdge(u, v)
		}
		c.chans = append(c.chans, u)
	}
	c.span[n] = [2]int32{int32(lo), int32(len(c.chans))}
	return true
}

func (c *closure) liveSwitch(n topology.NodeID) bool {
	return c.live[n] == c.walk && c.g.topo.Node(n).Kind == topology.Switch
}
