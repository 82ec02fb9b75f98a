package deadlock

import (
	"testing"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// testbed parameters of §6.1: 1 MB ingress buffers, τ = 90 µs (software
// switching), 10 Gb/s links.
func testbedConfig(factory flowcontrol.Factory) netsim.Config {
	return netsim.Config{
		BufferSize:  1000 * units.KB,
		Tau:         90 * units.Microsecond,
		FlowControl: factory,
	}
}

func pfcTestbed() flowcontrol.Factory {
	return flowcontrol.NewPFC(flowcontrol.PFCConfig{XOFF: 800 * units.KB, XON: 797 * units.KB})
}

func gfcTestbed() flowcontrol.Factory {
	return flowcontrol.NewGFCBuffer(flowcontrol.GFCBufferConfig{B1: 750 * units.KB})
}

func cbfcTestbed() flowcontrol.Factory {
	return flowcontrol.NewCBFC(flowcontrol.CBFCConfig{Period: 52400 * units.Nanosecond})
}

func gfcTimeTestbed() flowcontrol.Factory {
	return flowcontrol.NewGFCTime(flowcontrol.GFCTimeConfig{
		Period: 52400 * units.Nanosecond, B0: 492 * units.KB})
}

// buildRing creates a Figure 1-class deadlock scenario: an n-switch ring
// with h hosts per switch, every host sending an unbounded flow two switches
// clockwise. With h = 2 the cyclic buffers fill deterministically (transit
// traffic is squeezed below its arrival rate at every ring egress).
func buildRing(t *testing.T, h int, factory flowcontrol.Factory) (*netsim.Network, []*netsim.Flow) {
	t.Helper()
	topo := topology.RingHosts(3, h, topology.DefaultLinkParams())
	return buildRingOn(t, topo, h, testbedConfig(factory))
}

// buildRingOn is buildRing on a prebuilt ring topology under cfg.
func buildRingOn(t *testing.T, topo *topology.Topology, h int, cfg netsim.Config) (*netsim.Network, []*netsim.Flow) {
	t.Helper()
	n, err := netsim.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var flows []*netsim.Flow
	for i, path := range routing.RingHostsClockwisePaths(topo, 3, h) {
		f := &netsim.Flow{
			ID:   i + 1,
			Src:  path[0].Node,
			Dst:  path[len(path)-1].Link.Other(path[len(path)-1].Node),
			Size: 0, // unbounded
			Path: path,
		}
		if err := n.AddFlow(f, 0); err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	return n, flows
}

// hostIngress reads the occupancy of switch sw's ingress buffer fed by host.
func hostIngress(n *netsim.Network, sw, host string) units.Size {
	topo := n.Topology()
	ch := port(topo, topo.MustLookup(sw), topo.MustLookup(host))
	for _, is := range n.AppendIngressStates(nil) {
		if is.Ch == ch {
			return is.Occupancy
		}
	}
	return 0
}

func runWithDetector(n *netsim.Network, until units.Time) *Detector {
	d := NewDetector(n)
	poll(n, d.Check)
	n.Run(until)
	return d
}

// poll runs checks every PollInterval until each has reported, as a built
// scenario polls its detectors.
func poll(n *netsim.Network, checks ...func() *Report) {
	var tick func(int32)
	tick = func(int32) {
		pending := false
		for _, check := range checks {
			if check() == nil {
				pending = true
			}
		}
		if pending {
			n.Engine().After(PollInterval, tick, 0)
		}
	}
	n.Engine().After(PollInterval, tick, 0)
}

func TestPFCRingDeadlocks(t *testing.T) {
	n, flows := buildRing(t, 2, pfcTestbed())
	d := runWithDetector(n, 100*units.Millisecond)
	rep := d.Deadlocked()
	if rep == nil {
		t.Fatal("PFC on the deadlock ring did not deadlock")
	}
	if len(rep.Cycle) < 3 {
		t.Fatalf("cycle = %v, want the 3 inter-switch channels", rep.Cycle)
	}
	// The cycle must chain channel-to-channel.
	for i, c := range rep.Cycle {
		next := rep.Cycle[(i+1)%len(rep.Cycle)]
		if c.To != next.From {
			t.Fatalf("cycle does not chain: %v", rep.Cycle)
		}
	}
	// After deadlock, throughput stops entirely.
	before := make([]units.Size, len(flows))
	for i, f := range flows {
		before[i] = f.Delivered
	}
	n.Run(n.Now() + 20*units.Millisecond)
	for i, f := range flows {
		if f.Delivered != before[i] {
			t.Errorf("flow %d progressed after deadlock (%v -> %v)",
				f.ID, before[i], f.Delivered)
		}
	}
	if n.Drops() != 0 {
		t.Fatalf("drops = %d; PFC must be lossless even deadlocked", n.Drops())
	}
}

func TestCBFCRingDeadlocks(t *testing.T) {
	// CBFC's periodic credit feedback makes its collapse slower than
	// PFC's; give it a longer horizon.
	n, _ := buildRing(t, 2, cbfcTestbed())
	d := runWithDetector(n, 300*units.Millisecond)
	if d.Deadlocked() == nil {
		t.Fatal("CBFC on the deadlock ring did not deadlock")
	}
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
}

func TestGFCBufferRingNoDeadlock(t *testing.T) {
	n, flows := buildRing(t, 2, gfcTestbed())
	d := runWithDetector(n, 100*units.Millisecond)
	if rep := d.Deadlocked(); rep != nil {
		t.Fatalf("buffer-based GFC deadlocked: %+v", rep)
	}
	// Hold-and-wait is eliminated: every flow keeps making progress —
	// however slowly under this persistently oversubscribed CBD.
	var total units.Size
	for _, f := range flows {
		total += f.Delivered
	}
	if total == 0 {
		t.Fatal("no progress at all under GFC")
	}
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
}

func TestGFCTimeRingNoDeadlock(t *testing.T) {
	n, flows := buildRing(t, 2, gfcTimeTestbed())
	d := runWithDetector(n, 100*units.Millisecond)
	if rep := d.Deadlocked(); rep != nil {
		t.Fatalf("time-based GFC deadlocked: %+v", rep)
	}
	var total units.Size
	for _, f := range flows {
		total += f.Delivered
	}
	if total == 0 {
		t.Fatal("no progress at all under time-based GFC")
	}
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
}

// TestGFCSteadyStateFig9 checks the Figure 9(b) shape on the critically
// loaded 1-host ring: the host-facing ingress queue settles in the first
// stage band (B1=750KB .. B2) and the host rate converges to 5 Gb/s.
func TestGFCSteadyStateFig9(t *testing.T) {
	n, flows := buildRing(t, 1, gfcTestbed())
	n.Run(50 * units.Millisecond)
	q := hostIngress(n, "S1", "H1")
	if q < 740*units.KB || q > 890*units.KB {
		t.Errorf("steady host-facing queue %v, want within the stage-1/2 band (paper: ≈840KB)", q)
	}
	h1 := n.Topology().MustLookup("H1")
	if r := n.SenderRate(h1, 0); r != 5*units.Gbps {
		t.Errorf("steady H1 rate %v, want 5Gbps", r)
	}
	for _, f := range flows {
		rate := units.RateOf(f.Delivered, n.Now())
		if rate < 4.5*units.Gbps || rate > 5.5*units.Gbps {
			t.Errorf("flow %d rate %v, want ≈5G", f.ID, rate)
		}
	}
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
}

// TestGFCTimeSteadyStateFig10 checks the Figure 10(b) shape: queue ≈745KB,
// rate 5 Gb/s.
func TestGFCTimeSteadyStateFig10(t *testing.T) {
	n, flows := buildRing(t, 1, gfcTimeTestbed())
	n.Run(50 * units.Millisecond)
	q := hostIngress(n, "S1", "H1")
	if q < 650*units.KB || q > 800*units.KB {
		t.Errorf("steady queue %v, want ≈745KB (paper)", q)
	}
	for _, f := range flows {
		rate := units.RateOf(f.Delivered, n.Now())
		if rate < 4.5*units.Gbps || rate > 5.5*units.Gbps {
			t.Errorf("flow %d rate %v, want ≈5G", f.ID, rate)
		}
	}
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
}

func TestDetectorNoFalsePositive(t *testing.T) {
	// Plain congestion (2:1 incast under PFC) pauses ports but is not a
	// deadlock: progress continues.
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	n, err := netsim.New(topo, netsim.Config{
		BufferSize:  300 * units.KB,
		FlowControl: flowcontrol.NewPFC(flowcontrol.PFCConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.NewSPF(topo)
	for i, src := range []string{"H1", "H2"} {
		s := topo.MustLookup(src)
		dst := topo.MustLookup("H3")
		path, err := tab.Path(s, dst, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AddFlow(&netsim.Flow{ID: i, Src: s, Dst: dst, Path: path}, 0); err != nil {
			t.Fatal(err)
		}
	}
	d := runWithDetector(n, 50*units.Millisecond)
	if rep := d.Deadlocked(); rep != nil {
		t.Fatalf("false positive on congestion: %+v", rep)
	}
}

func TestDetectorManualCheck(t *testing.T) {
	n, _ := buildRing(t, 2, pfcTestbed())
	d := NewDetector(n)
	var rep *Report
	for i := 0; i < 100 && rep == nil; i++ {
		// Keep the clock advancing even after the network goes
		// silent: Check needs elapsing time to age stalls.
		at := n.Now() + units.Millisecond
		n.Engine().At(at, func(int32) {}, 0)
		n.Run(at)
		rep = d.Check()
	}
	if rep == nil {
		t.Fatal("manual checking missed the deadlock")
	}
	// Check is stable after detection.
	if again := d.Check(); again != rep {
		t.Fatal("Check did not return the cached report")
	}
	if rep.StallFor < window {
		t.Fatalf("StallFor %v below window %v", rep.StallFor, window)
	}
}

// TestQuietPollsAllocateNothing: a poll that convicts nothing allocates
// nothing, even when it finds stalled buffers — a chain whose holder drained
// too recently to be wedged, or a ring broken by a down link — or live pause
// edges that close no cycle. Each detector keeps its poll's scratch.
func TestQuietPollsAllocateNothing(t *testing.T) {
	chain := chainStall()
	chain.states[1].LastDepartAt = chain.now - units.Millisecond
	dc, f := newFakeDCFIT()
	f.pause(1, 2)
	f.pause(2, 3)
	f.pause(3, 4)
	for _, tc := range []struct {
		name  string
		check func() *Report
	}{
		{"chainStall", NewDetector(chain).Check},
		{"ringStall one down", NewDetector(ringStall([3]bool{true})).Check},
		{"dcfit pause chain", dc.Check},
	} {
		if rep := tc.check(); rep != nil {
			t.Fatalf("%s: convicted: %+v", tc.name, rep)
		}
		if avg := testing.AllocsPerRun(100, func() { tc.check() }); avg != 0 {
			t.Errorf("%s: a quiet poll allocates %v times", tc.name, avg)
		}
	}
}
