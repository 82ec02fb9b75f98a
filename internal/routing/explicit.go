package routing

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/topology"
)

// ExplicitPath builds a forwarding path through the named nodes, in order.
// It is how experiments pin the paper's hand-configured routes — e.g. the
// clockwise two-switch-hop flows of the Figure 1 deadlock ring, which
// shortest-path routing would never choose. Consecutive nodes must be joined
// by a live link; the final name is the destination and is not included as a
// transmitting hop.
func ExplicitPath(t *topology.Topology, names ...string) ([]Hop, error) {
	if len(names) < 2 {
		return nil, fmt.Errorf("routing: explicit path needs at least 2 nodes")
	}
	path := make([]Hop, 0, len(names)-1)
	for i := 0; i+1 < len(names); i++ {
		n, ok := t.Lookup(names[i])
		if !ok {
			return nil, fmt.Errorf("routing: unknown node %q", names[i])
		}
		next, ok := t.Lookup(names[i+1])
		if !ok {
			return nil, fmt.Errorf("routing: unknown node %q", names[i+1])
		}
		l := t.LinkBetween(n, next)
		if l == nil {
			return nil, fmt.Errorf("routing: no live link %s - %s", names[i], names[i+1])
		}
		path = append(path, Hop{Node: n, Port: l.PortOn(n), Link: l})
	}
	return path, nil
}

// MustExplicitPath is ExplicitPath that panics on error; for tests and
// fixed experiment setups.
func MustExplicitPath(t *topology.Topology, names ...string) []Hop {
	p, err := ExplicitPath(t, names...)
	if err != nil {
		panic(err)
	}
	return p
}

// RingHostsClockwisePaths returns the deadlock traffic pattern of Figure 1 on
// an n-switch ring built by topology.RingHosts with h hosts per switch: every
// host on switch i sends to its counterpart on switch i+2 (mod n), routed
// clockwise through two inter-switch links. Every inter-switch channel
// appears in exactly 2h paths and the induced buffer dependencies form a
// cycle.
func RingHostsClockwisePaths(t *topology.Topology, n, h int) [][]Hop {
	paths := make([][]Hop, 0, n*h)
	for i := 0; i < n; i++ {
		for j := 0; j < h; j++ {
			suffix := ""
			if j > 0 {
				suffix = string(rune('a' + j))
			}
			src := fmt.Sprintf("H%d%s", i+1, suffix)
			s1 := fmt.Sprintf("S%d", i+1)
			s2 := fmt.Sprintf("S%d", (i+1)%n+1)
			s3 := fmt.Sprintf("S%d", (i+2)%n+1)
			dst := fmt.Sprintf("H%d%s", (i+2)%n+1, suffix)
			paths = append(paths, MustExplicitPath(t, src, s1, s2, s3, dst))
		}
	}
	return paths
}
