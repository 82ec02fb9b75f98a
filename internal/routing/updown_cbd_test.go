package routing_test

import (
	"math/rand"
	"testing"

	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
)

// The invariant any deadlock-free routing owes the CBD builder: the buffer
// dependency graph of every path it can hand out is acyclic. Up*/Down* is
// deadlock-free by construction, so a cycle here is a bug in one of the two —
// a free cross-check of internal/cbd.

// upDownGraph is the CBD graph of the up*/down* paths of all ordered host
// pairs of topo; mustReach fails the test on a pair up*/down* cannot connect.
func upDownGraph(t *testing.T, topo *topology.Topology, mustReach bool) *cbd.Graph {
	t.Helper()
	ud, err := routing.NewUpDown(topo)
	if err != nil {
		t.Fatal(err)
	}
	g := cbd.NewGraph(topo)
	hosts := topo.Hosts()
	for _, s := range hosts {
		for _, d := range hosts {
			if s == d {
				continue
			}
			p, err := ud.Path(s, d)
			if err != nil {
				if mustReach {
					t.Fatalf("pair unreachable under up*/down*: %v", err)
				}
				continue // disconnected by the failed links
			}
			g.AddPath(p)
		}
	}
	return g
}

func TestUpDownRingBreaksCycle(t *testing.T) {
	// On a ring, up*/down* refuses the route around the cycle: the union
	// of its paths is acyclic while the clockwise pattern is not.
	lp := topology.DefaultLinkParams()
	for name, topo := range map[string]*topology.Topology{
		"ring3":          topology.Ring(3, lp),
		"ring5":          topology.Ring(5, lp),
		"fig9-formation": topology.RingHosts(3, 2, lp),
	} {
		if cyc := upDownGraph(t, topo, true).FindCycle(); len(cyc) > 0 {
			t.Errorf("%s: up*/down* produced a CBD: %v", name, cyc)
		}
	}
}

func TestUpDownIsCBDFree(t *testing.T) {
	// Even on randomly failed fat-trees, where the union of shortest
	// paths can contain a CBD, the union of up*/down* paths cannot.
	for seed := int64(1); seed <= 10; seed++ {
		topo := topology.FatTree(4, topology.DefaultLinkParams())
		topo.FailRandomLinks(rand.New(rand.NewSource(seed)), 0.08)
		if cyc := upDownGraph(t, topo, false).FindCycle(); len(cyc) > 0 {
			t.Errorf("seed %d: up*/down* produced a CBD: %v", seed, cyc)
		}
	}
}
