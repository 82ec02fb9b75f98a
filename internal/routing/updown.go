package routing

import (
	"fmt"
	"sort"

	"github.com/gfcsim/gfc/internal/topology"
)

// UpDown computes Up*/Down* routes (Autonet), the CBD-free routing
// restriction the paper's related work weighs GFC against (§8): deadlock can
// never form, at the cost of longer paths and lost multipath diversity. Links
// are oriented toward a spanning tree root (the switch with the most ports,
// lowest ID on ties), and a legal path is a sequence of zero or more "up"
// (toward the root) links followed by zero or more "down" links. No legal set
// of paths can form a cyclic buffer dependency.
type UpDown struct {
	topo *topology.Topology
	// level[n] is the BFS tree depth of node n from the root; up moves
	// strictly decrease (level, id) lexicographically.
	level []int
}

// NewUpDown builds the orientation for t over its live links.
func NewUpDown(t *topology.Topology) (*UpDown, error) {
	switches := t.Switches()
	if len(switches) == 0 {
		return nil, fmt.Errorf("routing: no switches")
	}
	// Root: the switch with the highest degree, lowest ID on ties — the
	// usual Autonet heuristic.
	root := switches[0]
	best := -1
	for _, s := range switches {
		d := len(t.Neighbors(s))
		if d > best || (d == best && s < root) {
			best = d
			root = s
		}
	}
	u := &UpDown{topo: t, level: make([]int, t.NumNodes())}
	for i := range u.level {
		u.level[i] = -1
	}
	u.level[root] = 0
	queue := []topology.NodeID{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, p := range t.Neighbors(n) {
			if u.level[p] < 0 {
				u.level[p] = u.level[n] + 1
				queue = append(queue, p)
			}
		}
	}
	return u, nil
}

// isUp reports whether moving a→b is an "up" move: toward the root in
// (level, id) lexicographic order. Every link has exactly one up direction,
// so the orientation is total and acyclic.
func (u *UpDown) isUp(a, b topology.NodeID) bool {
	if u.level[b] != u.level[a] {
		return u.level[b] < u.level[a]
	}
	return b < a
}

// Path computes a shortest Up*/Down*-legal path from src to dst, or an
// error when none exists (disconnected). Ties prefer fewer direction
// changes, then lower node IDs — deterministic.
func (u *UpDown) Path(src, dst topology.NodeID) ([]Hop, error) {
	if src == dst {
		return nil, fmt.Errorf("routing: src == dst")
	}
	t := u.topo
	// BFS over (node, phase): phase 0 = still allowed to go up,
	// phase 1 = committed to down moves only.
	type state struct {
		node  topology.NodeID
		phase int
	}
	type prevInfo struct {
		prev state
		at   topology.Attachment
		ok   bool
	}
	prev := make(map[state]prevInfo)
	start := state{src, 0}
	prev[start] = prevInfo{}
	queue := []state{start}
	var goal state
	found := false
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		// Deterministic expansion order: by local port index.
		ats := t.Ports(cur.node)
		for i := 0; i < len(ats); i++ {
			at := ats[i]
			if at.Link.Failed {
				continue
			}
			// Hosts do not forward transit traffic.
			if t.Node(cur.node).Kind == topology.Host && cur.node != src {
				continue
			}
			next := at.Peer
			up := u.isUp(cur.node, next)
			// Hosts sit below their switch: host links are
			// "down" toward the host regardless of orientation.
			if t.Node(next).Kind == topology.Host {
				up = false
			}
			if t.Node(cur.node).Kind == topology.Host {
				up = true
			}
			var ns state
			switch {
			case up && cur.phase == 0:
				ns = state{next, 0}
			case !up:
				ns = state{next, 1}
			default:
				continue // down→up is illegal
			}
			if _, seen := prev[ns]; seen {
				continue
			}
			prev[ns] = prevInfo{prev: cur, at: at, ok: true}
			if next == dst {
				goal = ns
				found = true
				break
			}
			if t.Node(next).Kind == topology.Switch {
				queue = append(queue, ns)
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("routing: no up*/down* path %d -> %d",
			src, dst)
	}
	// Reconstruct.
	var rev []Hop
	for s := goal; ; {
		pi := prev[s]
		if !pi.ok {
			break
		}
		rev = append(rev, Hop{
			Node: pi.prev.node,
			Port: pi.at.Link.PortOn(pi.prev.node),
			Link: pi.at.Link,
		})
		s = pi.prev
	}
	out := make([]Hop, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out, nil
}

// AllPairsStretch compares Up*/Down* path lengths with shortest paths over
// all ordered host pairs: it returns the mean stretch (UpDown length /
// SPF length) and the fraction of pairs with stretch > 1 — the multipath /
// path-length cost the paper cites against CBD-free routing.
func (u *UpDown) AllPairsStretch(tab *Table) (mean float64, inflated float64, err error) {
	hosts := u.topo.Hosts()
	var sum float64
	var n, longer int
	// Deterministic order.
	sorted := append([]topology.NodeID(nil), hosts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, s := range sorted {
		for _, d := range sorted {
			if s == d || !tab.Reachable(s, d) {
				continue
			}
			ud, err := u.Path(s, d)
			if err != nil {
				return 0, 0, err
			}
			spf, _ := tab.Distance(s, d)
			stretch := float64(len(ud)) / float64(spf)
			sum += stretch
			n++
			if len(ud) > spf {
				longer++
			}
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("routing: no reachable pairs")
	}
	return sum / float64(n), float64(longer) / float64(n), nil
}
