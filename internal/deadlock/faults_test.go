package deadlock

import (
	"fmt"
	"testing"

	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// fakeNet feeds the detector a synthetic snapshot: the stall predicate and
// cycle search run on exactly this data, so the link-flap regressions can
// be pinned without staging a timing-sensitive outage end-to-end.
type fakeNet struct {
	now    units.Time
	topo   *topology.Topology
	states []netsim.IngressState
}

func (f *fakeNet) Now() units.Time              { return f.now }
func (f *fakeNet) Topology() *topology.Topology { return f.topo }
func (f *fakeNet) AppendIngressStates(dst []netsim.IngressState) []netsim.IngressState {
	return append(dst, f.states...)
}

// fakeTopo returns switches 0..6 joined by the given links, in order. The
// fakes' default wires the ring 1-2-3 with a spur 3-4 and a separate 5-6.
func fakeTopo(links ...[2]topology.NodeID) *topology.Topology {
	if links == nil {
		links = [][2]topology.NodeID{{1, 2}, {2, 3}, {3, 1}, {3, 4}, {5, 6}}
	}
	t := topology.New()
	for i := range 7 {
		t.AddSwitch(fmt.Sprintf("S%d", i))
	}
	for _, l := range links {
		t.AddLink(l[0], l[1], units.Gbps, 0)
	}
	return t
}

// port returns the channel of node's port toward peer: the ingress channel
// peer→node, and node's egress toward peer.
func port(t *topology.Topology, node, peer topology.NodeID) int {
	return t.ChannelBases()[node] + t.LinkBetween(node, peer).PortOn(node)
}

// ringStall builds the canonical 3-cycle of mutually waiting ring buffers
// (1→2 waits on 2→3 waits on 3→1 waits on 1→2), every buffer occupied and
// progress-free for well over the detection window, every waited-on egress
// at rate zero. down[i] marks buffer i's egress administratively down.
func ringStall(down [3]bool) *fakeNet {
	nodes := [3]topology.NodeID{1, 2, 3}
	topo := fakeTopo()
	var states []netsim.IngressState
	for i := 0; i < 3; i++ {
		prev, next := nodes[(i+2)%3], nodes[(i+1)%3]
		states = append(states, netsim.IngressState{
			Ch:            port(topo, nodes[i], prev),
			Occupancy:     800 * units.KB,
			OccupiedSince: units.Millisecond,
			Waits:         []netsim.Wait{{Ch: port(topo, next, nodes[i]), Down: down[i]}},
		})
	}
	return &fakeNet{now: 100 * units.Millisecond, topo: topo, states: states}
}

// TestCheckReportsCleanCycle is the positive control: the synthetic cycle
// with every link up must be reported.
func TestCheckReportsCleanCycle(t *testing.T) {
	d := NewDetector(ringStall([3]bool{}))
	rep := d.Check()
	if rep == nil {
		t.Fatal("clean 3-cycle of zero-rate waits not reported")
	}
	if len(rep.Cycle) != 3 {
		t.Fatalf("cycle %v, want all 3 buffers", rep.Cycle)
	}
}

// TestCheckExcludesAdminDownWait is the flap regression: a buffer whose
// only zero-rate wait is an administratively-down egress is in a transient
// outage, not hold-and-wait, so the cycle must not be reported — a flapped
// ring link would otherwise read as a ring deadlock for the duration of
// every outage longer than the window.
func TestCheckExcludesAdminDownWait(t *testing.T) {
	for i := 0; i < 3; i++ {
		var down [3]bool
		down[i] = true
		d := NewDetector(ringStall(down))
		if rep := d.Check(); rep != nil {
			t.Errorf("buffer %d waiting on a down link, cycle still reported: %+v", i, rep)
		}
	}
	// All three down: the whole ring is an outage, not a deadlock.
	if rep := NewDetector(ringStall([3]bool{true, true, true})).Check(); rep != nil {
		t.Errorf("fully flapped ring reported as deadlock: %+v", rep)
	}
}

// TestFlapRecoversWithoutDeadlock runs the fig9 ring under buffer-based GFC
// through a mid-run link flap twice as long as the detection window: the
// detector must stay silent throughout (during the outage included), the
// fabric must stay lossless, and forwarding must resume after the link
// returns.
func TestFlapRecoversWithoutDeadlock(t *testing.T) {
	topo := topology.RingHosts(3, 1, topology.DefaultLinkParams())
	spec := &faults.Spec{
		Name: "flap",
		Links: []faults.LinkFault{{
			Link: "S1-S2",
			Flaps: []faults.Flap{{
				DownAt: 10 * units.Millisecond,
				UpAt:   20 * units.Millisecond,
			}},
		}},
	}
	plan, err := spec.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testbedConfig(gfcTestbed())
	cfg.Faults = plan.NewInjector(1)
	n, err := netsim.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var flows []*netsim.Flow
	for i, path := range routing.RingHostsClockwisePaths(topo, 3, 1) {
		f := &netsim.Flow{ID: i + 1, Src: path[0].Node,
			Dst:  path[len(path)-1].Link.Other(path[len(path)-1].Node),
			Path: path}
		if err := n.AddFlow(f, 0); err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	d := NewDetector(n)
	poll(n, d.Check)

	n.Run(20 * units.Millisecond) // through the outage
	if rep := d.Deadlocked(); rep != nil {
		t.Fatalf("deadlock reported during the outage: %+v", rep)
	}
	before := make([]units.Size, len(flows))
	for i, f := range flows {
		before[i] = f.Delivered
	}
	n.Run(60 * units.Millisecond)
	if rep := d.Deadlocked(); rep != nil {
		t.Fatalf("deadlock reported after recovery: %+v", rep)
	}
	for i, f := range flows {
		if f.Delivered <= before[i] {
			t.Errorf("flow %d made no progress after the link returned", f.ID)
		}
	}
	if n.Drops() != 0 {
		t.Fatalf("drops = %d; an administrative flap must stay lossless", n.Drops())
	}
}

// TestDownLinkHoldsTraffic pins the outage semantics: while the link is
// down nothing crosses it, and the held traffic is not dropped.
func TestDownLinkHoldsTraffic(t *testing.T) {
	topo := topology.Linear(3, topology.DefaultLinkParams())
	n, err := netsim.New(topo, testbedConfig(gfcTestbed()))
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.NewSPF(topo)
	src, dst := topo.MustLookup("H1"), topo.MustLookup("H3")
	path, err := tab.Path(src, dst, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := &netsim.Flow{ID: 1, Src: src, Dst: dst, Path: path}
	if err := n.AddFlow(f, 0); err != nil {
		t.Fatal(err)
	}
	link := topo.LinkBetween(topo.MustLookup("S1"), topo.MustLookup("S2"))
	n.Engine().At(2*units.Millisecond, func(int32) {
		n.SetLinkAdminState(link.ID, true)
	}, 0)
	n.Run(3 * units.Millisecond)
	mid := f.Delivered
	n.Run(8 * units.Millisecond)
	if f.Delivered != mid {
		t.Errorf("delivered %v -> %v across a down link", mid, f.Delivered)
	}
	n.SetLinkAdminState(link.ID, false)
	n.Run(12 * units.Millisecond)
	if f.Delivered <= mid {
		t.Error("no recovery after link up")
	}
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
}
