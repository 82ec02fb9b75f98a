package cbd

import (
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
)

// fromAllPairsReference is FromAllPairs before its walk reused the channels
// each switch records: a parent re-reads its child's row and re-resolves every
// grandchild's liveness and vertex. It must build the same graph, vertex for
// vertex and successor list for successor list.
func fromAllPairsReference(t *topology.Topology, tab *routing.Table, rackOf func(topology.NodeID) int) *Graph {
	n := t.NumNodes()
	c := &refClosure{g: NewGraph(t), rows: tab.Rows(), seen: make([]int32, n), live: make([]int32, n)}
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
		for _, src := range hosts {
			if src != d && (rackOf == nil || rackOf(src) != rackOf(d)) {
				c.visit(src)
			}
		}
	}
	return c.g
}

type refClosure struct {
	g          *Graph
	rows       *routing.Rows
	dst        topology.NodeID
	walk       int32
	seen, live []int32
}

func (c *refClosure) visit(n topology.NodeID) bool {
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
	for _, uv := range row {
		if !c.liveSwitch(uv.Peer) {
			continue
		}
		u := c.g.vertex(n, uv.Link)
		for _, vw := range c.rows.Row(uv.Peer) {
			if c.liveSwitch(vw.Peer) {
				c.g.addEdge(u, c.g.vertex(uv.Peer, vw.Link))
			}
		}
	}
	return true
}

func (c *refClosure) liveSwitch(n topology.NodeID) bool {
	return c.live[n] == c.walk && c.g.topo.Node(n).Kind == topology.Switch
}
