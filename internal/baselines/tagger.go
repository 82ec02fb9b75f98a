package baselines

import (
	"fmt"
	"sort"

	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
)

// Tagger is a simplified reimplementation of the Tagger idea (Hu et al.,
// CoNEXT 2017; §8 of the GFC paper): break *circular wait* by bumping a
// packet's priority class when it crosses one of a statically computed set
// of "risky" channel-to-channel transitions, so that no cycle exists within
// any single class. Unlike the generic hop-by-hop escalation (which needs
// as many classes as the longest path), the rule set is derived from the
// actual buffer-dependency graph of the expected routes, so the class
// budget stays small — but it is still finite, which is Tagger's documented
// limitation: if the traffic escapes the analysed routes, packets may need
// a class that does not exist.
type Tagger struct {
	// bump[classless transition] — the set of (via, from, to) node
	// triples at which a packet entering `via` from `from` and leaving
	// toward `to` must move up one class.
	bump map[[3]topology.NodeID]bool
	// Classes is the number of priority classes the rule set needs
	// (1 + the longest chain of bumps on any analysed path).
	Classes int
}

// NewTagger analyses the given forwarding paths and returns rules that
// guarantee no cyclic buffer dependency within any priority class. The
// algorithm breaks every cycle of the dependency graph by marking a
// transition edge on it, iterating until acyclic (a greedy feedback-edge
// cut; Tagger proper exploits topology structure for minimality, which a
// simulator does not need).
func NewTagger(t *topology.Topology, paths [][]routing.Hop) (*Tagger, error) {
	tg := &Tagger{bump: make(map[[3]topology.NodeID]bool)}

	// Iterate: build the class-0 dependency graph of path segments that
	// have no bump yet; every cycle found gets its first edge bumped.
	for iter := 0; ; iter++ {
		if iter > t.NumLinks()*2 {
			return nil, fmt.Errorf("baselines: tagger failed to converge")
		}
		g := cbd.NewGraph(t)
		for _, p := range paths {
			// Split the path at bumps: each fragment lives in one
			// class, and only same-class fragments can deadlock
			// together. (Higher classes inherit a sub-path of the
			// original, so if class 0's graph is acyclic and each
			// bump strictly increases the class, every class's
			// graph is a subgraph of an acyclic one... which is
			// not automatic — so all fragments of all classes are
			// folded into one graph per iteration, conservatively.)
			frag := make([]routing.Hop, 0, len(p))
			for i, h := range p {
				if i > 0 && i+1 <= len(p) {
					via := h.Node
					from := p[i-1].Node
					var to topology.NodeID
					if i+1 < len(p) {
						to = p[i+1].Node
					} else {
						to = h.Link.Other(h.Node)
					}
					if tg.bump[[3]topology.NodeID{via, from, to}] {
						g.AddPath(frag)
						frag = frag[:0]
					}
				}
				frag = append(frag, h)
			}
			g.AddPath(frag)
		}
		cyc := g.FindCycle()
		if cyc == nil {
			break
		}
		// Bump the transition between the first two cycle channels:
		// packets arriving at cyc[0].To from cyc[0].From and heading
		// to cyc[1].To switch class there.
		key := [3]topology.NodeID{cyc[0].To, cyc[0].From, cyc[1].To}
		if tg.bump[key] {
			return nil, fmt.Errorf("baselines: tagger re-marked %v", key)
		}
		tg.bump[key] = true
	}

	// Class budget: 1 + max bumps along any path.
	maxBumps := 0
	for _, p := range paths {
		b := tg.pathBumps(p)
		if b > maxBumps {
			maxBumps = b
		}
	}
	tg.Classes = maxBumps + 1
	return tg, nil
}

// pathBumps counts the escalations a packet on p experiences.
func (tg *Tagger) pathBumps(p []routing.Hop) int {
	n := 0
	for i := 1; i < len(p); i++ {
		via := p[i].Node
		from := p[i-1].Node
		var to topology.NodeID
		if i+1 < len(p) {
			to = p[i+1].Node
		} else {
			to = p[i].Link.Other(p[i].Node)
		}
		if tg.bump[[3]topology.NodeID{via, from, to}] {
			n++
		}
	}
	return n
}

// Rules lists the bump triples, sorted, for inspection.
func (tg *Tagger) Rules() [][3]topology.NodeID {
	out := make([][3]topology.NodeID, 0, len(tg.bump))
	for k := range tg.bump {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for x := 0; x < 3; x++ {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	return out
}

// Escalation returns the netsim hook applying the rule set. The simulation
// must be configured with at least Classes priority classes.
func (tg *Tagger) Escalation() func(pkt *netsim.Packet, at topology.NodeID) int {
	return func(pkt *netsim.Packet, at topology.NodeID) int {
		// The packet was just admitted at `at`; its sender is
		// CurrentHop().Node (hop not yet advanced) and its next node
		// follows from the path.
		hop := pkt.CurrentHop()
		from := hop.Node
		idx := -1
		for i := range pkt.Path {
			if pkt.Path[i].Node == from && pkt.Path[i].Link == hop.Link {
				idx = i
				break
			}
		}
		if idx < 0 || idx+1 >= len(pkt.Path) {
			return pkt.Priority
		}
		var to topology.NodeID
		if idx+2 < len(pkt.Path) {
			to = pkt.Path[idx+2].Node
		} else {
			last := pkt.Path[idx+1]
			to = last.Link.Other(last.Node)
		}
		if tg.bump[[3]topology.NodeID{at, from, to}] {
			return pkt.Priority + 1
		}
		return pkt.Priority
	}
}
