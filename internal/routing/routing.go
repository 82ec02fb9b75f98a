// Package routing computes shortest-path-first routes over a topology, the
// routing discipline used throughout the paper's evaluation (§6.2.2). Ties
// between equal-cost paths are broken by a deterministic per-flow hash, so a
// given flow key always follows the same path, while flows of one (source,
// destination) pair may spread over all of the pair's shortest paths. The
// Table 1 sweep's CBD pre-filter therefore reads the union of those paths
// (Rows), not any one hashed choice.
package routing

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Table holds per-destination shortest-path state for one topology. Build it
// once per (topology, failure set); it is read-only afterwards and safe for
// concurrent use.
type Table struct {
	topo *topology.Topology
	// row[s] is the hop distance from every node to s over live links, or
	// unreachable, for each BFS source s; nil for every other node. The rows
	// are slices of one flat backing array.
	row [][]int32
	// via[dst] is the BFS source of routed destination dst's distances, None
	// when dst is not routed: dst itself, or, for a host whose one link is
	// live and leads to a switch, that switch, dst's anchor. Hosts do not
	// forward, so such a host is one hop further from every other node than
	// its anchor is, and all hosts of one anchor share its row.
	via []topology.NodeID
}

const unreachable int32 = 1 << 30

// NewSPF computes shortest-path routing toward every host in t.
func NewSPF(t *topology.Topology) *Table { return NewSPFToward(t, t.Hosts()) }

// NewSPFToward computes routing toward only the given destinations; cheaper
// than NewSPF when few hosts receive traffic. It runs one BFS per anchor (a
// k=16 fat-tree's 1 024 hosts share 128 rows), and one per other destination.
func NewSPFToward(t *topology.Topology, dsts []topology.NodeID) *Table {
	n := t.NumNodes()
	tab := &Table{topo: t, row: make([][]int32, n), via: make([]topology.NodeID, n)}
	for i := range tab.via {
		tab.via[i] = topology.None
	}
	srcs := make([]topology.NodeID, 0, len(dsts))
	isSrc := make([]bool, n)
	for _, d := range dsts {
		s := anchorOf(t, d)
		tab.via[d] = s
		if !isSrc[s] {
			isSrc[s] = true
			srcs = append(srcs, s)
		}
	}
	flat := make([]int32, len(srcs)*n)
	queue := make([]topology.NodeID, 0, n)
	for _, s := range srcs {
		tab.row[s], flat = flat[:n:n], flat[n:]
		bfsFrom(t, s, tab.row[s], queue)
	}
	return tab
}

// anchorOf returns the BFS source of d's distances: the switch at the far end
// of d's only link when d is a host and that link is live, else d itself (a
// switch, a multi-homed host, a host on a failed link or one attached to
// another host).
func anchorOf(t *topology.Topology, d topology.NodeID) topology.NodeID {
	ports := t.Ports(d)
	if t.Node(d).Kind != topology.Host || len(ports) != 1 || ports[0].Link.Failed ||
		t.Node(ports[0].Peer).Kind != topology.Switch {
		return d
	}
	return ports[0].Peer
}

// bfsFrom fills dist with the hop distance of every node to src. queue is
// scratch with capacity for every node (each is enqueued at most once).
func bfsFrom(t *topology.Topology, src topology.NodeID, dist []int32, queue []topology.NodeID) {
	for i := range dist {
		dist[i] = unreachable
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		// Hosts do not forward transit traffic: only the BFS source (a
		// destination host with a row of its own) may expand through a host.
		if t.Node(n).Kind == topology.Host && n != src {
			continue
		}
		for _, at := range t.Ports(n) {
			if !at.Link.Failed && dist[at.Peer] > dist[n]+1 {
				dist[at.Peer] = dist[n] + 1
				queue = append(queue, at.Peer)
			}
		}
	}
}

// distances reads the hop distance toward one destination out of the row of
// its BFS source.
type distances struct {
	row  []int32 // nil when dst is not a routed destination
	lift int32   // 1 when row is dst's anchor's, 0 when it is dst's own
	dst  topology.NodeID
}

// to returns the hop distance from n to dst; unreachable or more when dst
// cannot be reached from n.
func (d distances) to(n topology.NodeID) int32 {
	if n == d.dst {
		return 0
	}
	return d.row[n] + d.lift
}

// toward returns dst's distances; their row is nil when dst is not a routed
// destination.
func (tab *Table) toward(dst topology.NodeID) distances {
	if uint(dst) >= uint(len(tab.via)) || tab.via[dst] == topology.None {
		return distances{}
	}
	s := tab.via[dst]
	d := distances{row: tab.row[s], dst: dst}
	if s != dst {
		d.lift = 1
	}
	return d
}

// Distance reports the hop count from n to dst, with ok=false when dst is
// unreachable (or not a routed destination).
func (tab *Table) Distance(n, dst topology.NodeID) (int, bool) {
	d := tab.toward(dst)
	if d.row == nil || d.to(n) >= unreachable {
		return 0, false
	}
	return int(d.to(n)), true
}

// Reachable reports whether dst can be reached from n.
func (tab *Table) Reachable(n, dst topology.NodeID) bool {
	_, ok := tab.Distance(n, dst)
	return ok
}

// appendNextHops appends to out the attachments of n on shortest paths
// toward dst — live links to a peer one hop closer that is a switch or dst
// itself — ordered by ascending peer NodeID (then port). The ordering is a
// semantic guarantee, not an iteration accident: ECMP selection indexes into
// this row, so it must not depend on the order links were inserted into the
// topology. It is the one statement of the next-hop eligibility-and-order
// rule: NextHop and Rows both read it. Empty when dst is unreachable. Port
// fan-out is the switch radix and builders attach
// peers in nearly ascending order, so the insertion sort is close to linear.
func (tab *Table) appendNextHops(out []topology.Attachment, n, dst topology.NodeID) []topology.Attachment {
	d := tab.toward(dst)
	return tab.appendHops(out, &d, n)
}

// appendHops is appendNextHops toward the destination of d, for a caller
// that reads every node's next hops toward one destination.
func (tab *Table) appendHops(out []topology.Attachment, d *distances, n topology.NodeID) []topology.Attachment {
	if d.row == nil || n == d.dst || d.row[n] >= unreachable {
		return out
	}
	// Away from the destination, distances differ as the row's do; the
	// destination is a next hop of the nodes one hop from it.
	base, closer, last := len(out), d.row[n]-1, d.to(n) == 1
	for _, at := range tab.topo.Ports(n) {
		if at.Peer == d.dst {
			if !last || at.Link.Failed {
				continue
			}
		} else if d.row[at.Peer] != closer || at.Link.Failed || tab.topo.Node(at.Peer).Kind == topology.Host {
			continue
		}
		i := len(out)
		out = append(out, at)
		for ; i > base && (out[i-1].Peer > at.Peer || out[i-1].Peer == at.Peer && out[i-1].Port > at.Port); i-- {
			out[i] = out[i-1]
		}
		out[i] = at
	}
	return out
}

// pick is the ECMP choice among count equal-cost next hops of n toward dst.
// A single candidate (every downward hop of a fat-tree) needs no hash and no
// divide.
func pick(flowKey uint64, n, dst topology.NodeID, count int) int {
	if count == 1 {
		return 0
	}
	return int(mix(flowKey^uint64(n)<<32^uint64(dst)) % uint64(count))
}

// NextHop picks one next hop toward dst deterministically from flowKey
// (ECMP by flow hash): the appendNextHops row, indexed, without the
// allocation.
func (tab *Table) NextHop(n, dst topology.NodeID, flowKey uint64) (topology.Attachment, bool) {
	var buf [32]topology.Attachment
	row := tab.appendNextHops(buf[:0], n, dst)
	if len(row) == 0 {
		return topology.Attachment{}, false
	}
	return row[pick(flowKey, n, dst, len(row))], true
}

// Rows is reusable scratch holding every node's NextHops toward one
// destination at a time: the next-hop DAG toward that destination, for
// analyses that read every shortest path to it at once (the all-pairs CBD
// closure). The eligible hops are found once per (node, destination). Not
// safe for concurrent use; the Table it reads is.
type Rows struct {
	tab  *Table
	off  []int32 // node n's row is hops[off[n]:off[n+1]]
	hops []topology.Attachment
}

// Rows returns empty scratch over tab; call Toward before reading a row.
func (tab *Table) Rows() *Rows {
	return &Rows{tab: tab, off: make([]int32, len(tab.via)+1)}
}

// Toward rebuilds the rows for dst and reports whether dst is a routed
// destination.
func (r *Rows) Toward(dst topology.NodeID) bool {
	r.hops = r.hops[:0]
	d := r.tab.toward(dst)
	for n := range r.tab.via {
		r.off[n] = int32(len(r.hops))
		r.hops = r.tab.appendHops(r.hops, &d, topology.NodeID(n))
	}
	r.off[len(r.tab.via)] = int32(len(r.hops))
	return d.row != nil
}

// Row returns n's next hops toward the current destination — what
// appendNextHops lists, in its order; empty at the destination itself and
// where it is unreachable. The slice is the scratch's own: valid until the
// next Toward.
func (r *Rows) Row(n topology.NodeID) []topology.Attachment {
	return r.hops[r.off[n]:r.off[n+1]]
}

// Hop is one forwarding step of a path: the node, the local egress port used
// and the link it leads over.
type Hop struct {
	Node topology.NodeID
	Port int
	Link *topology.Link
}

// Path traces the full route a flow keyed by flowKey takes from src to dst,
// one Hop per transmitting node (the destination is not included). It fails
// when dst is unreachable.
func (tab *Table) Path(src, dst topology.NodeID, flowKey uint64) ([]Hop, error) {
	if src == dst {
		return nil, fmt.Errorf("routing: src == dst (%d)", src)
	}
	hops, ok := tab.Distance(src, dst)
	if !ok {
		return nil, fmt.Errorf("routing: %s unreachable from %s",
			tab.topo.Node(dst).Name, tab.topo.Node(src).Name)
	}
	// Every step moves one hop closer, so the path length is exactly the
	// hop distance: size the slice once instead of growing it.
	path := make([]Hop, 0, hops)
	n := src
	for n != dst {
		at, ok := tab.NextHop(n, dst, flowKey)
		if !ok {
			return nil, fmt.Errorf("routing: no next hop from %s to %s",
				tab.topo.Node(n).Name, tab.topo.Node(dst).Name)
		}
		path = append(path, Hop{Node: n, Port: at.Port, Link: at.Link})
		n = at.Peer
		if len(path) > tab.topo.NumNodes() {
			return nil, fmt.Errorf("routing: loop detected from %s to %s",
				tab.topo.Node(src).Name, tab.topo.Node(dst).Name)
		}
	}
	return path, nil
}

// GeneratedFlowKey is the ECMP key a generated flow is routed under: its
// sequence number id spread over the key space, salted with its endpoints.
// workload.Generator keys the flows it launches with it, and the fluid
// backend's stand-in for a generator workload keys its flows the same way.
func GeneratedFlowKey(id int, src, dst topology.NodeID) uint64 {
	return uint64(id)*1315423911 ^ uint64(src)<<24 ^ uint64(dst)
}

// PathLatency reports the end-to-end serialization + propagation latency of
// a path for one packet of the given size: the unloaded-network time a
// same-sized packet needs, used for the slowdown metric of Figure 17.
func PathLatency(path []Hop, pkt units.Size) units.Time {
	var total units.Time
	for _, h := range path {
		total += units.TransmissionTime(pkt, h.Link.Capacity) + h.Link.Delay
	}
	return total
}

// mix is a 64-bit finalizer (splitmix64) giving a well-distributed
// deterministic hash for ECMP selection.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
