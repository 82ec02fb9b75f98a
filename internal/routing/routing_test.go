package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

func ring3() *topology.Topology {
	return topology.Ring(3, topology.DefaultLinkParams())
}

func TestRingDistances(t *testing.T) {
	topo := ring3()
	tab := NewSPF(topo)
	h1 := topo.MustLookup("H1")
	h2 := topo.MustLookup("H2")
	// H1 -> S1 -> S2 -> H2 crosses 3 links.
	d, ok := tab.Distance(h1, h2)
	if !ok || d != 3 {
		t.Fatalf("Distance(H1,H2) = %d,%v; want 3", d, ok)
	}
}

func TestRingPath(t *testing.T) {
	topo := ring3()
	tab := NewSPF(topo)
	h1 := topo.MustLookup("H1")
	h2 := topo.MustLookup("H2")
	path, err := tab.Path(h1, h2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 {
		t.Fatalf("path length = %d, want 3 hops", len(path))
	}
	if path[0].Node != h1 {
		t.Error("path does not start at src")
	}
	want := []string{"H1", "S1", "S2"}
	for i, h := range path {
		if topo.Node(h.Node).Name != want[i] {
			t.Errorf("hop %d at %s, want %s", i, topo.Node(h.Node).Name, want[i])
		}
	}
}

func TestPathErrors(t *testing.T) {
	topo := ring3()
	tab := NewSPF(topo)
	h1 := topo.MustLookup("H1")
	if _, err := tab.Path(h1, h1, 0); err == nil {
		t.Error("src==dst did not error")
	}
}

func TestUnreachable(t *testing.T) {
	topo := ring3()
	// Cut both ring links around S2 and the host link... hosts never fail,
	// so cut S1-S2 and S2-S3 to isolate H2's switch.
	topo.FailLinkBetween("S1", "S2")
	topo.FailLinkBetween("S2", "S3")
	tab := NewSPF(topo)
	h1 := topo.MustLookup("H1")
	h2 := topo.MustLookup("H2")
	if tab.Reachable(h1, h2) {
		t.Fatal("H2 should be unreachable")
	}
	if _, err := tab.Path(h1, h2, 0); err == nil {
		t.Fatal("Path to unreachable dst did not error")
	}
	// H1 -> H3 still works the long way round? S1-S3 link remains.
	h3 := topo.MustLookup("H3")
	if !tab.Reachable(h1, h3) {
		t.Fatal("H3 should remain reachable via S1-S3")
	}
}

func TestHostsDoNotTransit(t *testing.T) {
	// Linear topology: H1-S1-S2-H2, and a "shortcut" host X connected to
	// both S1 and S2 must not carry transit traffic.
	topo := topology.New()
	s1 := topo.AddSwitch("S1")
	s2 := topo.AddSwitch("S2")
	s3 := topo.AddSwitch("S3")
	h1 := topo.AddHost("H1")
	h2 := topo.AddHost("H2")
	x := topo.AddHost("X")
	p := topology.DefaultLinkParams()
	topo.AddLink(h1, s1, p.Capacity, p.Delay)
	topo.AddLink(h2, s2, p.Capacity, p.Delay)
	// Long switch path S1 - S3 - S2.
	topo.AddLink(s1, s3, p.Capacity, p.Delay)
	topo.AddLink(s3, s2, p.Capacity, p.Delay)
	// Tempting shortcut through host X.
	topo.AddLink(x, s1, p.Capacity, p.Delay)
	topo.AddLink(x, s2, p.Capacity, p.Delay)

	tab := NewSPF(topo)
	path, err := tab.Path(h1, h2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range path {
		if h.Node == x {
			t.Fatal("path transits a host")
		}
	}
	if len(path) != 4 { // H1,S1,S3,S2
		t.Fatalf("path length %d, want 4", len(path))
	}
}

func TestECMPDeterminism(t *testing.T) {
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	tab := NewSPF(topo)
	h0 := topo.MustLookup("H0")
	h8 := topo.MustLookup("H8")
	p1, err1 := tab.Path(h0, h8, 42)
	p2, err2 := tab.Path(h0, h8, 42)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(p1) != len(p2) {
		t.Fatal("same key gave different paths")
	}
	for i := range p1 {
		if p1[i].Node != p2[i].Node || p1[i].Port != p2[i].Port {
			t.Fatal("same key gave different paths")
		}
	}
}

func TestECMPSpreads(t *testing.T) {
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	tab := NewSPF(topo)
	h0 := topo.MustLookup("H0")
	h8 := topo.MustLookup("H8")
	// Different keys should eventually use more than one core.
	cores := map[string]bool{}
	for key := uint64(0); key < 64; key++ {
		path, err := tab.Path(h0, h8, key)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range path {
			if topo.Node(h.Node).Layer == "core" {
				cores[topo.Node(h.Node).Name] = true
			}
		}
	}
	if len(cores) < 2 {
		t.Errorf("ECMP used only %d cores over 64 keys", len(cores))
	}
}

func TestFatTreePathLengths(t *testing.T) {
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	tab := NewSPF(topo)
	h0 := topo.MustLookup("H0") // pod 0, edge E1
	h1 := topo.MustLookup("H1") // same edge
	h2 := topo.MustLookup("H2") // same pod, different edge
	h8 := topo.MustLookup("H8") // different pod

	cases := []struct {
		src, dst topology.NodeID
		hops     int // transmitting nodes: host + switches
	}{
		{h0, h1, 2}, // H0,E1
		{h0, h2, 4}, // H0,E1,A?,E2
		{h0, h8, 6}, // H0,E1,A,C,A,E
	}
	for _, c := range cases {
		path, err := tab.Path(c.src, c.dst, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != c.hops {
			t.Errorf("path %s->%s has %d hops, want %d",
				topo.Node(c.src).Name, topo.Node(c.dst).Name, len(path), c.hops)
		}
	}
}

func TestNewSPFToward(t *testing.T) {
	topo := ring3()
	h1 := topo.MustLookup("H1")
	h2 := topo.MustLookup("H2")
	h3 := topo.MustLookup("H3")
	tab := NewSPFToward(topo, []topology.NodeID{h2})
	if !tab.Reachable(h1, h2) {
		t.Fatal("routed destination unreachable")
	}
	if tab.Reachable(h1, h3) {
		t.Fatal("unrouted destination reported reachable")
	}
}

func TestPathLatency(t *testing.T) {
	topo := ring3()
	tab := NewSPF(topo)
	path, err := tab.Path(topo.MustLookup("H1"), topo.MustLookup("H2"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// 3 hops at 10G with 1us delay: 3*(1.2us + 1us) = 6.6us for 1500B.
	got := PathLatency(path, 1500*units.Byte)
	want := 3 * (units.TransmissionTime(1500, 10*units.Gbps) + units.Microsecond)
	if got != want {
		t.Errorf("PathLatency = %v, want %v", got, want)
	}
}

// Property: every SPF path in a randomly failed fat-tree is loop-free, has
// length equal to the BFS distance, and uses only live links.
func TestRandomFailurePathsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := topology.FatTree(4, topology.DefaultLinkParams())
		topo.FailRandomLinks(rng, 0.1)
		tab := NewSPF(topo)
		hosts := topo.Hosts()
		for trial := 0; trial < 20; trial++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			if !tab.Reachable(src, dst) {
				continue
			}
			key := rng.Uint64()
			path, err := tab.Path(src, dst, key)
			if err != nil {
				return false
			}
			d, _ := tab.Distance(src, dst)
			if len(path) != d {
				return false
			}
			seen := map[topology.NodeID]bool{}
			for _, h := range path {
				if seen[h.Node] || h.Link.Failed {
					return false
				}
				seen[h.Node] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
