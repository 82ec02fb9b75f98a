package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

func TestEnterpriseShape(t *testing.T) {
	d := Enterprise()
	rng := rand.New(rand.NewSource(1))
	var small, large int
	const n = 20000
	for i := 0; i < n; i++ {
		s := d.Sample(rng)
		if s < 250 || s > 30*units.MB {
			t.Fatalf("sample %v outside support", s)
		}
		if s <= 10*units.KB {
			small++
		}
		if s >= units.MB {
			large++
		}
	}
	// Figure 15 shape: ~65% of flows ≤ 10KB, ~5% ≥ 1MB.
	if frac := float64(small) / n; frac < 0.55 || frac > 0.75 {
		t.Errorf("P(≤10KB) = %v, want ≈0.65", frac)
	}
	if frac := float64(large) / n; frac < 0.02 || frac > 0.10 {
		t.Errorf("P(≥1MB) = %v, want ≈0.05", frac)
	}
}

func TestEnterpriseCDFAt(t *testing.T) {
	d := Enterprise()
	cases := []struct {
		s    units.Size
		want float64
	}{
		{250, 0}, {10 * units.KB, 0.65}, {1 * units.MB, 0.95}, {30 * units.MB, 1.0},
		{100 * units.MB, 1.0}, {1, 0},
	}
	for _, c := range cases {
		if got := d.CDFAt(c.s); got != c.want {
			t.Errorf("CDFAt(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestSampleMatchesCDF(t *testing.T) {
	// Goodness of fit: empirical fraction below each knot must match the
	// analytic CDF.
	d := Enterprise()
	rng := rand.New(rand.NewSource(7))
	const n = 50000
	checks := []units.Size{units.KB, 10 * units.KB, 100 * units.KB, units.MB}
	counts := make([]int, len(checks))
	for i := 0; i < n; i++ {
		s := d.Sample(rng)
		for j, c := range checks {
			if s <= c {
				counts[j]++
			}
		}
	}
	for j, c := range checks {
		got := float64(counts[j]) / n
		want := d.CDFAt(c)
		if diff := got - want; diff > 0.02 || diff < -0.02 {
			t.Errorf("empirical P(≤%v) = %.3f, analytic %.3f", c, got, want)
		}
	}
}

func TestUniformDist(t *testing.T) {
	d := Uniform(1234)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if s := d.Sample(rng); s < 1234 || s > 1235 {
			t.Fatalf("Uniform sampled %v", s)
		}
	}
}

func TestEdgeRacks(t *testing.T) {
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	racks := EdgeRacks(topo)
	h0 := topo.MustLookup("H0")
	h1 := topo.MustLookup("H1") // same edge switch
	h2 := topo.MustLookup("H2") // different edge
	if racks(h0) != racks(h1) {
		t.Error("same-edge hosts in different racks")
	}
	if racks(h0) == racks(h2) {
		t.Error("different-edge hosts in same rack")
	}
}

func TestGeneratorDrivesTraffic(t *testing.T) {
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	net, err := netsim.New(topo, netsim.Config{
		BufferSize:  300 * units.KB,
		FlowControl: flowcontrol.NewGFCBuffer(flowcontrol.GFCBufferConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.NewSPF(topo)
	g := NewGenerator(net, tab, Enterprise(), EdgeRacks(topo), 42)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * units.Millisecond)
	if len(g.Completed) == 0 {
		t.Fatal("no flows completed in 2ms of fat-tree traffic")
	}
	if net.Drops() != 0 {
		t.Fatalf("drops = %d", net.Drops())
	}
	for _, f := range g.Completed {
		if f.Src == f.Dst {
			t.Fatal("self-flow generated")
		}
		if !f.Done() {
			t.Fatal("incomplete flow recorded as completed")
		}
		// Inter-rack only.
		racks := EdgeRacks(topo)
		if racks(f.Src) == racks(f.Dst) {
			t.Fatal("intra-rack flow generated")
		}
	}
	// Chaining: more flows total than hosts (some hosts finished and
	// launched successors).
	if len(net.Flows()) <= len(topo.Hosts()) {
		t.Errorf("flows = %d, hosts = %d; no chaining observed",
			len(net.Flows()), len(topo.Hosts()))
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() (int, units.Size) {
		topo := topology.FatTree(4, topology.DefaultLinkParams())
		net, err := netsim.New(topo, netsim.Config{
			BufferSize:  300 * units.KB,
			FlowControl: flowcontrol.NewPFC(flowcontrol.PFCConfig{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		tab := routing.NewSPF(topo)
		g := NewGenerator(net, tab, Enterprise(), EdgeRacks(topo), 99)
		if err := g.Start(); err != nil {
			t.Fatal(err)
		}
		net.Run(units.Millisecond)
		return len(g.Completed), net.TotalDelivered()
	}
	c1, d1 := run()
	c2, d2 := run()
	if c1 != c2 || d1 != d2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", c1, d1, c2, d2)
	}
}

// TestTotalDeliveredMatchesFlowSum: the network's running delivery total is
// the sum over every flow ever added — completed ones and the ones a stopped
// run leaves in flight.
func TestTotalDeliveredMatchesFlowSum(t *testing.T) {
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	net, err := netsim.New(topo, netsim.Config{
		BufferSize:  300 * units.KB,
		FlowControl: flowcontrol.NewGFCBuffer(flowcontrol.GFCBufferConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(net, routing.NewSPF(topo), Enterprise(), EdgeRacks(topo), 7)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	net.Run(units.Millisecond)
	var sum units.Size
	done, inFlight := 0, 0
	for _, f := range net.Flows() {
		sum += f.Delivered
		switch {
		case f.Done():
			done++
		case f.Delivered > 0:
			inFlight++
		}
	}
	if done == 0 || inFlight == 0 {
		t.Fatalf("want completed and partly delivered flows, got %d and %d", done, inFlight)
	}
	if got := net.TotalDelivered(); got != sum || sum == 0 {
		t.Fatalf("TotalDelivered = %v, flows sum to %v", got, sum)
	}
}

func TestGeneratorDisconnected(t *testing.T) {
	// Hosts with no inter-rack reachable destination stay idle rather
	// than erroring.
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	// Sever pod 0's uplinks entirely: its hosts can only reach pod-0
	// hosts, all in... pod 0 has 2 racks, so intra-pod inter-rack flows
	// remain possible. Sever edge-agg links of one edge instead.
	for _, at := range topo.Ports(topo.MustLookup("E1")) {
		if topo.Node(at.Peer).Kind == topology.Switch {
			at.Link.Failed = true
		}
	}
	net, err := netsim.New(topo, netsim.Config{
		BufferSize:  300 * units.KB,
		FlowControl: flowcontrol.NewPFC(flowcontrol.PFCConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.NewSPF(topo)
	g := NewGenerator(net, tab, Uniform(10*units.KB), EdgeRacks(topo), 5)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	net.Run(units.Millisecond)
	// The isolated rack's hosts (H0, H1) must not appear as sources.
	for _, f := range net.Flows() {
		name := topo.Node(f.Src).Name
		if name == "H0" || name == "H1" {
			t.Fatalf("isolated host %s sourced a flow", name)
		}
	}
}

// Property: samples always lie within the distribution's support.
func TestSampleSupport(t *testing.T) {
	d := Enterprise()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			s := d.Sample(rng)
			if s < 250*units.Byte || s > 30*units.MB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: CDFAt is monotone non-decreasing.
func TestCDFMonotone(t *testing.T) {
	d := Enterprise()
	f := func(a, b uint32) bool {
		x := units.Size(a%50000000) + 1
		y := units.Size(b%50000000) + 1
		if x > y {
			x, y = y, x
		}
		return d.CDFAt(x) <= d.CDFAt(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
