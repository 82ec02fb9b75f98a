package routing

import (
	"testing"

	"github.com/gfcsim/gfc/internal/topology"
)

func TestExplicitPath(t *testing.T) {
	topo := topology.Ring(3, topology.DefaultLinkParams())
	p, err := ExplicitPath(topo, "H1", "S1", "S2", "H2")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Fatalf("hops = %d, want 3", len(p))
	}
	want := []string{"H1", "S1", "S2"}
	for i, h := range p {
		if topo.Node(h.Node).Name != want[i] {
			t.Errorf("hop %d at %s, want %s", i, topo.Node(h.Node).Name, want[i])
		}
		// Port must be the attachment toward the next node.
		if h.Link.PortOn(h.Node) != h.Port {
			t.Errorf("hop %d port mismatch", i)
		}
	}
	// Final hop's link reaches the destination.
	last := p[len(p)-1]
	if topo.Node(last.Link.Other(last.Node)).Name != "H2" {
		t.Error("path does not end at H2")
	}
}

func TestExplicitPathErrors(t *testing.T) {
	topo := topology.Ring(3, topology.DefaultLinkParams())
	if _, err := ExplicitPath(topo, "H1"); err == nil {
		t.Error("single-node path accepted")
	}
	if _, err := ExplicitPath(topo, "nope", "S1"); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := ExplicitPath(topo, "S1", "nope"); err == nil {
		t.Error("unknown hop accepted")
	}
	if _, err := ExplicitPath(topo, "H1", "H2"); err == nil {
		t.Error("unlinked pair accepted")
	}
	// Failed links are not usable.
	topo.FailLinkBetween("S1", "S2")
	if _, err := ExplicitPath(topo, "S1", "S2"); err == nil {
		t.Error("failed link accepted")
	}
}

func TestMustExplicitPathPanics(t *testing.T) {
	topo := topology.Ring(3, topology.DefaultLinkParams())
	defer func() {
		if recover() == nil {
			t.Error("MustExplicitPath did not panic")
		}
	}()
	MustExplicitPath(topo, "H1", "H2")
}

func TestRingClockwisePathsShape(t *testing.T) {
	topo := topology.Ring(4, topology.DefaultLinkParams())
	paths := RingHostsClockwisePaths(topo, 4, 1)
	if len(paths) != 4 {
		t.Fatalf("paths = %d", len(paths))
	}
	for i, p := range paths {
		// H_i, S_i, S_{i+1}, S_{i+2} → 4 transmitting hops.
		if len(p) != 4 {
			t.Fatalf("path %d has %d hops", i, len(p))
		}
		if topo.Node(p[0].Node).Kind != topology.Host {
			t.Errorf("path %d does not start at a host", i)
		}
		// Two inter-switch links per path (the CBD requirement).
		interSwitch := 0
		for _, h := range p {
			a := topo.Node(h.Node).Kind
			b := topo.Node(h.Link.Other(h.Node)).Kind
			if a == topology.Switch && b == topology.Switch {
				interSwitch++
			}
		}
		if interSwitch != 2 {
			t.Errorf("path %d crosses %d inter-switch links, want 2", i, interSwitch)
		}
	}
}

func TestRingHostsClockwisePathsMultiHost(t *testing.T) {
	topo := topology.RingHosts(3, 3, topology.DefaultLinkParams())
	paths := RingHostsClockwisePaths(topo, 3, 3)
	if len(paths) != 9 {
		t.Fatalf("paths = %d, want 9", len(paths))
	}
	// Sibling hosts pair with their counterparts: srcs and dsts all
	// distinct.
	srcs := map[topology.NodeID]bool{}
	dsts := map[topology.NodeID]bool{}
	for _, p := range paths {
		src := p[0].Node
		dst := p[len(p)-1].Link.Other(p[len(p)-1].Node)
		if srcs[src] || dsts[dst] {
			t.Fatal("duplicate src or dst in the pattern")
		}
		srcs[src] = true
		dsts[dst] = true
	}
}
