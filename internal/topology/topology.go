// Package topology models the physical network: nodes (hosts and switches)
// joined by full-duplex links with capacity and propagation delay. It also
// provides builders for every topology the paper evaluates — the 3-switch
// deadlock ring of Figure 1, k-ary fat-trees (Figure 11) and the dumbbell
// used for the DCQCN interaction study — plus random link-failure injection
// for the large-scale sweeps of Table 1.
package topology

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/gfcsim/gfc/internal/units"
)

// NodeID identifies a node within one Topology.
type NodeID int

// None is the invalid node ID.
const None NodeID = -1

// Kind distinguishes traffic endpoints from forwarding elements.
type Kind uint8

// Node kinds.
const (
	Host Kind = iota
	Switch
)

func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case Switch:
		return "switch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Node is a network element.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string
	// Layer tags switches in structured topologies ("edge", "agg",
	// "core") and is empty elsewhere.
	Layer string
	// Pod is the pod index in fat-trees, -1 elsewhere.
	Pod int
}

// LinkID identifies a link within one Topology.
type LinkID int

// Link is a full-duplex connection between two nodes. Port numbers are the
// per-node indices of the attachment points; they are what flow-control
// state hangs off.
type Link struct {
	ID       LinkID
	A, B     NodeID
	PortA    int // port index on A
	PortB    int // port index on B
	Capacity units.Rate
	Delay    units.Time
	Failed   bool
}

// Other returns the endpoint of l that is not n.
func (l *Link) Other(n NodeID) NodeID {
	if l.A == n {
		return l.B
	}
	return l.A
}

// PortOn returns the port index of l on node n.
func (l *Link) PortOn(n NodeID) int {
	if l.A == n {
		return l.PortA
	}
	return l.PortB
}

// Attachment is one end of a link as seen from a node.
type Attachment struct {
	Link *Link
	Peer NodeID
	Port int // local port index
}

// Topology is a mutable network graph. Build it with AddHost / AddSwitch /
// AddLink, or use one of the ready-made builders.
type Topology struct {
	nodes []Node
	links []*Link
	adj   [][]Attachment // by node, indexed by local port
	byNam map[string]NodeID
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{byNam: make(map[string]NodeID)}
}

func (t *Topology) addNode(kind Kind, name string) NodeID {
	if _, dup := t.byNam[name]; dup {
		panic(fmt.Sprintf("topology: duplicate node name %q", name))
	}
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{ID: id, Kind: kind, Name: name, Pod: -1})
	t.adj = append(t.adj, nil)
	t.byNam[name] = id
	return id
}

// AddHost adds a host node.
func (t *Topology) AddHost(name string) NodeID { return t.addNode(Host, name) }

// AddSwitch adds a switch node.
func (t *Topology) AddSwitch(name string) NodeID { return t.addNode(Switch, name) }

// SetLayer tags node n with a layer label and pod index.
func (t *Topology) SetLayer(n NodeID, layer string, pod int) {
	t.nodes[n].Layer = layer
	t.nodes[n].Pod = pod
}

// AddLink joins a and b with a full-duplex link, assigning the next free
// port on each side, and returns its ID.
func (t *Topology) AddLink(a, b NodeID, capacity units.Rate, delay units.Time) LinkID {
	if a == b {
		panic("topology: self-link")
	}
	if capacity <= 0 {
		panic("topology: non-positive link capacity")
	}
	if delay < 0 {
		panic("topology: negative link delay")
	}
	id := LinkID(len(t.links))
	l := &Link{
		ID: id, A: a, B: b,
		PortA: len(t.adj[a]), PortB: len(t.adj[b]),
		Capacity: capacity, Delay: delay,
	}
	t.links = append(t.links, l)
	t.adj[a] = append(t.adj[a], Attachment{Link: l, Peer: b, Port: l.PortA})
	t.adj[b] = append(t.adj[b], Attachment{Link: l, Peer: a, Port: l.PortB})
	return id
}

// NumNodes reports the number of nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumLinks reports the number of links, failed or not.
func (t *Topology) NumLinks() int { return len(t.links) }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) *Node { return &t.nodes[id] }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) *Link { return t.links[id] }

// Lookup finds a node by name; the second result reports whether it exists.
func (t *Topology) Lookup(name string) (NodeID, bool) {
	id, ok := t.byNam[name]
	return id, ok
}

// MustLookup finds a node by name and panics if it does not exist.
func (t *Topology) MustLookup(name string) NodeID {
	id, ok := t.byNam[name]
	if !ok {
		panic(fmt.Sprintf("topology: no node named %q", name))
	}
	return id
}

// Ports returns the attachments of node n indexed by local port. Failed
// links are included; callers that care must check Link.Failed.
func (t *Topology) Ports(n NodeID) []Attachment { return t.adj[n] }

// ChannelBases numbers the network's channels — one per port, the direction
// of its link into that port's ingress buffer, failed links included — in
// (node, port) order: port p of node n is channel bases[n] + p, and
// bases[NumNodes()] is the channel count. Every per-channel array in the
// simulator and the metrics registry is indexed this way.
func (t *Topology) ChannelBases() []int {
	bases := make([]int, len(t.adj)+1)
	for n, ats := range t.adj {
		bases[n+1] = bases[n] + len(ats)
	}
	return bases
}

// ChannelPort inverts ChannelBases, returning the node and port of channel ch.
func ChannelPort(bases []int, ch int) (NodeID, int) {
	n := sort.Search(len(bases)-1, func(n int) bool { return bases[n+1] > ch })
	return NodeID(n), ch - bases[n]
}

// Neighbors returns the peers of n over non-failed links.
func (t *Topology) Neighbors(n NodeID) []NodeID {
	var out []NodeID
	for _, at := range t.adj[n] {
		if !at.Link.Failed {
			out = append(out, at.Peer)
		}
	}
	return out
}

// Hosts returns the IDs of all host nodes.
func (t *Topology) Hosts() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Kind == Host {
			out = append(out, n.ID)
		}
	}
	return out
}

// Switches returns the IDs of all switch nodes.
func (t *Topology) Switches() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Kind == Switch {
			out = append(out, n.ID)
		}
	}
	return out
}

// LinkBetween returns the non-failed link joining a and b, or nil.
func (t *Topology) LinkBetween(a, b NodeID) *Link {
	for _, at := range t.adj[a] {
		if at.Peer == b && !at.Link.Failed {
			return at.Link
		}
	}
	return nil
}

// FailLinkBetween fails the link joining the named nodes and returns its ID.
// Routing and simulation ignore failed links.
func (t *Topology) FailLinkBetween(a, b string) LinkID {
	l := t.LinkBetween(t.MustLookup(a), t.MustLookup(b))
	if l == nil {
		panic(fmt.Sprintf("topology: no live link between %s and %s", a, b))
	}
	l.Failed = true
	return l.ID
}

// FailRandomLinks fails each switch-to-switch link independently with the
// given probability, using rng, and returns the failed link IDs. Host
// attachment links never fail (a failed host link just removes the host,
// which the paper's sweep does not model).
func (t *Topology) FailRandomLinks(rng *rand.Rand, prob float64) []LinkID {
	var failed []LinkID
	for _, l := range t.links {
		if l.Failed {
			continue
		}
		if t.nodes[l.A].Kind != Switch || t.nodes[l.B].Kind != Switch {
			continue
		}
		if rng.Float64() < prob {
			l.Failed = true
			failed = append(failed, l.ID)
		}
	}
	return failed
}
