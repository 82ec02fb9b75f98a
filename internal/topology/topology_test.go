package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gfcsim/gfc/internal/units"
)

// Connected reports whether all hosts can reach each other over non-failed
// links: the builders' reachability oracle.
func (t *Topology) Connected() bool {
	hosts := t.Hosts()
	if len(hosts) <= 1 {
		return true
	}
	seen := make([]bool, len(t.nodes))
	queue := []NodeID{hosts[0]}
	seen[hosts[0]] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, p := range t.Neighbors(n) {
			if !seen[p] {
				seen[p] = true
				queue = append(queue, p)
			}
		}
	}
	for _, h := range hosts {
		if !seen[h] {
			return false
		}
	}
	return true
}

func TestAddNodesAndLinks(t *testing.T) {
	topo := New()
	a := topo.AddSwitch("S1")
	b := topo.AddSwitch("S2")
	h := topo.AddHost("H1")
	if topo.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", topo.NumNodes())
	}
	id := topo.AddLink(a, b, 10*units.Gbps, units.Microsecond)
	topo.AddLink(h, a, 10*units.Gbps, units.Microsecond)
	l := topo.Link(id)
	if l.A != a || l.B != b || l.PortA != 0 || l.PortB != 0 {
		t.Fatalf("link = %+v", l)
	}
	if l.Other(a) != b || l.Other(b) != a {
		t.Error("Other endpoints wrong")
	}
	if l.PortOn(a) != 0 || l.PortOn(b) != 0 {
		t.Error("PortOn wrong")
	}
	// Second link on a gets port 1.
	if got := topo.Ports(a); len(got) != 2 || got[1].Peer != h {
		t.Fatalf("Ports(a) = %+v", got)
	}
}

func TestLookup(t *testing.T) {
	topo := New()
	s := topo.AddSwitch("S1")
	if id, ok := topo.Lookup("S1"); !ok || id != s {
		t.Fatal("Lookup failed")
	}
	if _, ok := topo.Lookup("nope"); ok {
		t.Fatal("Lookup found ghost")
	}
	if topo.MustLookup("S1") != s {
		t.Fatal("MustLookup wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLookup on missing name did not panic")
		}
	}()
	topo.MustLookup("nope")
}

func TestDuplicateNamePanics(t *testing.T) {
	topo := New()
	topo.AddSwitch("S1")
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	topo.AddSwitch("S1")
}

func TestBadLinkPanics(t *testing.T) {
	topo := New()
	a := topo.AddSwitch("S1")
	b := topo.AddSwitch("S2")
	for _, fn := range []func(){
		func() { topo.AddLink(a, a, units.Gbps, 0) },
		func() { topo.AddLink(a, b, 0, 0) },
		func() { topo.AddLink(a, b, units.Gbps, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad link did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestFailLink(t *testing.T) {
	topo := Ring(3, DefaultLinkParams())
	s1 := topo.MustLookup("S1")
	s2 := topo.MustLookup("S2")
	if topo.LinkBetween(s1, s2) == nil {
		t.Fatal("no S1-S2 link")
	}
	id := topo.FailLinkBetween("S1", "S2")
	if !topo.Link(id).Failed {
		t.Fatal("link not marked failed")
	}
	if topo.LinkBetween(s1, s2) != nil {
		t.Fatal("LinkBetween returned failed link")
	}
	found := false
	for _, p := range topo.Neighbors(s1) {
		if p == s2 {
			found = true
		}
	}
	if found {
		t.Fatal("Neighbors includes failed link peer")
	}
}

func TestRingShape(t *testing.T) {
	topo := Ring(3, DefaultLinkParams())
	if got := len(topo.Hosts()); got != 3 {
		t.Errorf("hosts = %d", got)
	}
	if got := len(topo.Switches()); got != 3 {
		t.Errorf("switches = %d", got)
	}
	if got := topo.NumLinks(); got != 6 {
		t.Errorf("links = %d", got)
	}
	if !topo.Connected() {
		t.Error("ring not connected")
	}
	// Each switch: 1 host port + 2 ring ports.
	for _, s := range topo.Switches() {
		if got := len(topo.Ports(s)); got != 3 {
			t.Errorf("switch %d has %d ports", s, got)
		}
	}
}

func TestRingTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Ring(2) did not panic")
		}
	}()
	Ring(2, DefaultLinkParams())
}

func TestFatTreeShape(t *testing.T) {
	for _, k := range []int{4, 8} {
		topo := FatTree(k, DefaultLinkParams())
		wantHosts := k * k * k / 4
		if got := len(topo.Hosts()); got != wantHosts {
			t.Errorf("k=%d hosts = %d, want %d", k, got, wantHosts)
		}
		wantSwitches := k*k/2 + k*k/2 + k*k/4 // edge + agg + core... edge=agg=k*k/2? no
		wantSwitches = k*(k/2)*2 + (k/2)*(k/2)
		if got := len(topo.Switches()); got != wantSwitches {
			t.Errorf("k=%d switches = %d, want %d", k, got, wantSwitches)
		}
		// Every switch in a fat-tree has exactly k ports.
		for _, s := range topo.Switches() {
			if got := len(topo.Ports(s)); got != k {
				t.Errorf("k=%d switch %s has %d ports", k, topo.Node(s).Name, got)
			}
		}
		if !topo.Connected() {
			t.Errorf("k=%d fat-tree not connected", k)
		}
	}
}

func TestFatTreeLayers(t *testing.T) {
	topo := FatTree(4, DefaultLinkParams())
	counts := map[string]int{}
	for _, s := range topo.Switches() {
		counts[topo.Node(s).Layer]++
	}
	if counts["core"] != 4 || counts["agg"] != 8 || counts["edge"] != 8 {
		t.Fatalf("layer counts = %v", counts)
	}
	// Core switches connect only to aggs, one per pod.
	c1 := topo.MustLookup("C1")
	pods := map[int]bool{}
	for _, at := range topo.Ports(c1) {
		n := topo.Node(at.Peer)
		if n.Layer != "agg" {
			t.Fatalf("core connects to %s", n.Layer)
		}
		pods[n.Pod] = true
	}
	if len(pods) != 4 {
		t.Fatalf("C1 reaches %d pods, want 4", len(pods))
	}
}

func TestFatTreeOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FatTree(3) did not panic")
		}
	}()
	FatTree(3, DefaultLinkParams())
}

func TestDumbbell(t *testing.T) {
	topo := Dumbbell(8, DefaultLinkParams())
	if got := len(topo.Hosts()); got != 9 {
		t.Errorf("hosts = %d, want 9", got)
	}
	if got := len(topo.Switches()); got != 2 {
		t.Errorf("switches = %d, want 2", got)
	}
	if !topo.Connected() {
		t.Error("dumbbell not connected")
	}
}

func TestLinear(t *testing.T) {
	topo := Linear(4, DefaultLinkParams())
	if got := len(topo.Hosts()); got != 4 {
		t.Errorf("hosts = %d", got)
	}
	if got := topo.NumLinks(); got != 4+3 {
		t.Errorf("links = %d", got)
	}
}

func TestTwoToOne(t *testing.T) {
	topo := TwoToOne(DefaultLinkParams())
	if len(topo.Hosts()) != 3 || len(topo.Switches()) != 1 {
		t.Fatal("wrong two-to-one shape")
	}
}

func TestFailRandomLinksOnlySwitchLinks(t *testing.T) {
	topo := FatTree(4, DefaultLinkParams())
	rng := rand.New(rand.NewSource(1))
	failed := topo.FailRandomLinks(rng, 1.0) // fail everything failable
	for _, id := range failed {
		l := topo.Link(id)
		if topo.Node(l.A).Kind != Switch || topo.Node(l.B).Kind != Switch {
			t.Fatal("host link failed")
		}
	}
	// With every switch-switch link down, hosts on different edges are
	// disconnected.
	if topo.Connected() {
		t.Error("still connected after failing all fabric links")
	}
	// All switch-switch links failed: 4 edge-agg per pod * ... count:
	wantFailed := 0
	for i := 0; i < topo.NumLinks(); i++ {
		l := topo.Link(i2l(i))
		if topo.Node(l.A).Kind == Switch && topo.Node(l.B).Kind == Switch {
			wantFailed++
		}
	}
	if len(failed) != wantFailed {
		t.Errorf("failed %d, want %d", len(failed), wantFailed)
	}
}

func i2l(i int) LinkID { return LinkID(i) }

func TestFailRandomLinksProbZero(t *testing.T) {
	topo := FatTree(4, DefaultLinkParams())
	rng := rand.New(rand.NewSource(1))
	if got := topo.FailRandomLinks(rng, 0); len(got) != 0 {
		t.Errorf("failed %d links at prob 0", len(got))
	}
}

func TestFatTreeInvariants(t *testing.T) {
	f := func(kk uint8) bool {
		k := int(kk%3)*2 + 4 // 4, 6, 8
		topo := FatTree(k, DefaultLinkParams())
		for _, s := range topo.Switches() {
			if len(topo.Ports(s)) != k {
				return false
			}
		}
		for _, h := range topo.Hosts() {
			if len(topo.Ports(h)) != 1 {
				return false
			}
		}
		return topo.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}
