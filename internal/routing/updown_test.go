package routing

import (
	"testing"

	"github.com/gfcsim/gfc/internal/topology"
)

func TestUpDownPathsLegal(t *testing.T) {
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	ud, err := NewUpDown(topo)
	if err != nil {
		t.Fatal(err)
	}
	hosts := topo.Hosts()
	for _, s := range hosts[:4] {
		for _, d := range hosts[len(hosts)-4:] {
			if s == d {
				continue
			}
			p, err := ud.Path(s, d)
			if err != nil {
				t.Fatalf("%v->%v: %v", s, d, err)
			}
			// Verify up-then-down: once a down move happens, no up.
			down := false
			for i := 0; i+1 < len(p); i++ {
				a, b := p[i].Node, p[i+1].Node
				up := ud.isUp(a, b)
				if topo.Node(b).Kind == topology.Host {
					up = false
				}
				if topo.Node(a).Kind == topology.Host {
					up = true
				}
				if up && down {
					t.Fatalf("illegal down->up at hop %d of %v->%v", i, s, d)
				}
				if !up {
					down = true
				}
			}
			// Ends at d.
			last := p[len(p)-1]
			if last.Link.Other(last.Node) != d {
				t.Fatalf("path does not end at destination")
			}
		}
	}
}

func TestUpDownStretch(t *testing.T) {
	// The cost side: on a healthy fat-tree up*/down* should be close to
	// shortest, but on a ring some pairs take the long way round.
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	ud, err := NewUpDown(topo)
	if err != nil {
		t.Fatal(err)
	}
	mean, _, err := ud.AllPairsStretch(NewSPF(topo))
	if err != nil {
		t.Fatal(err)
	}
	if mean < 1.0 {
		t.Fatalf("mean stretch %v < 1", mean)
	}
	if mean > 1.5 {
		t.Errorf("fat-tree up*/down* stretch %v unexpectedly high", mean)
	}
	// Ring: the long-way-round cost must show up.
	ring := topology.Ring(5, topology.DefaultLinkParams())
	udr, err := NewUpDown(ring)
	if err != nil {
		t.Fatal(err)
	}
	rmean, rinfl, err := udr.AllPairsStretch(NewSPF(ring))
	if err != nil {
		t.Fatal(err)
	}
	if rinfl == 0 {
		t.Errorf("no inflated pairs on a 5-ring (mean %v)", rmean)
	}
}
