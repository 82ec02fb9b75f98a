package dcqcn

import (
	"testing"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// buildIncast creates the Figure 20 dumbbell: n senders, one receiver,
// ECN marking at 40KB, GFC flow control, DCQCN on every flow.
func buildIncast(t *testing.T, senders int) (*netsim.Network, []*RP, []*netsim.Flow) {
	t.Helper()
	topo := topology.Dumbbell(senders, topology.DefaultLinkParams())
	cfg := netsim.Config{
		BufferSize:   1000 * units.KB,
		ECNThreshold: 40 * units.KB,
		FlowControl:  flowcontrol.NewGFCBuffer(flowcontrol.GFCBufferConfig{}),
	}
	net, err := netsim.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.NewSPF(topo)
	recv := topo.MustLookup(nodeName(senders + 1))
	var rps []*RP
	var flows []*netsim.Flow
	for i := 1; i <= senders; i++ {
		src := topo.MustLookup(nodeName(i))
		path, err := tab.Path(src, recv, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		f := &netsim.Flow{ID: i, Src: src, Dst: recv, Path: path}
		rp := Attach(net, f, 10*units.Gbps)
		if err := net.AddFlow(f, 0); err != nil {
			t.Fatal(err)
		}
		rps = append(rps, rp)
		flows = append(flows, f)
	}
	return net, rps, flows
}

func nodeName(i int) string { return "H" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func TestDCQCNReducesIncastRate(t *testing.T) {
	net, rps, _ := buildIncast(t, 8)
	net.Run(5 * units.Millisecond)
	// 8:1 incast on a 10G bottleneck: DCQCN must cut rates well below
	// line rate; fair share is 1.25G.
	for i, rp := range rps {
		if rp.rc >= 10*units.Gbps {
			t.Errorf("sender %d still at line rate %v", i+1, rp.rc)
		}
	}
	if net.Drops() != 0 {
		t.Fatalf("drops = %d", net.Drops())
	}
}

func TestDCQCNConvergesNearFairShare(t *testing.T) {
	net, _, flows := buildIncast(t, 8)
	net.Run(30 * units.Millisecond)
	// Measure goodput over a late window.
	before := make([]units.Size, len(flows))
	for i, f := range flows {
		before[i] = f.Delivered
	}
	const win = 20 * units.Millisecond
	net.Run(net.Now() + win)
	var total units.Rate
	for i, f := range flows {
		r := units.RateOf(f.Delivered-before[i], win)
		total += r
		if r < 0.3*units.Gbps || r > 3*units.Gbps {
			t.Errorf("flow %d late rate %v, want near fair share 1.25G", f.ID, r)
		}
	}
	// Bottleneck should stay well utilised.
	if total < 7*units.Gbps {
		t.Errorf("aggregate %v, bottleneck underutilised", total)
	}
}

func TestDCQCNAlphaDynamics(t *testing.T) {
	net, rps, _ := buildIncast(t, 8)
	rp := rps[0]
	if got := rp.alpha; got != 0.5 {
		t.Fatalf("initial alpha = %v", got)
	}
	net.Run(2 * units.Millisecond)
	// Under persistent marking alpha should have moved from its seed.
	if rp.alpha == 0.5 {
		t.Error("alpha never updated under congestion")
	}
	if rp.alpha < 0 || rp.alpha > 1 {
		t.Errorf("alpha = %v outside [0,1]", rp.alpha)
	}
	_ = net
}

func TestDCQCNRecoversAfterCongestion(t *testing.T) {
	// Single sender with DCQCN on an idle path climbs back to line rate
	// after an initial artificial cut.
	topo := topology.Dumbbell(1, topology.DefaultLinkParams())
	net, err := netsim.New(topo, netsim.Config{
		BufferSize:  1000 * units.KB,
		FlowControl: flowcontrol.NewPFC(flowcontrol.PFCConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.NewSPF(topo)
	src := topo.MustLookup("H1")
	dst := topo.MustLookup("H2")
	path, err := tab.Path(src, dst, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := &netsim.Flow{ID: 1, Src: src, Dst: dst, Path: path}
	rp := Attach(net, f, 10*units.Gbps)
	if err := net.AddFlow(f, 0); err != nil {
		t.Fatal(err)
	}
	// Inject one synthetic CNP at 1ms.
	net.Engine().At(units.Millisecond, rp.onCNP, 0)
	net.Run(2 * units.Millisecond)
	cut := rp.rc
	if cut >= 10*units.Gbps {
		t.Fatalf("CNP did not cut rate: %v", cut)
	}
	net.Run(30 * units.Millisecond)
	if rp.rc < 9*units.Gbps {
		t.Errorf("rate %v did not recover toward line rate", rp.rc)
	}
}

func TestDCQCNRateLog(t *testing.T) {
	net, rps, _ := buildIncast(t, 4)
	var samples int
	rps[0].RateLog = func(units.Time, units.Rate) { samples++ }
	net.Run(5 * units.Millisecond)
	if samples == 0 {
		t.Fatal("RateLog never called")
	}
}

func TestDCQCNMinRateFloor(t *testing.T) {
	topo := topology.Dumbbell(1, topology.DefaultLinkParams())
	net, err := netsim.New(topo, netsim.Config{
		BufferSize:  1000 * units.KB,
		FlowControl: flowcontrol.NewPFC(flowcontrol.PFCConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.NewSPF(topo)
	src, dst := topo.MustLookup("H1"), topo.MustLookup("H2")
	path, _ := tab.Path(src, dst, 1)
	f := &netsim.Flow{ID: 1, Src: src, Dst: dst, Path: path}
	rp := Attach(net, f, 10*units.Gbps)
	// Hammer CNPs directly: rate must never fall below minRate.
	for i := 0; i < 200; i++ {
		rp.onCNP(0)
	}
	if rp.rc < minRate {
		t.Fatalf("rate %v below floor %v", rp.rc, minRate)
	}
}

func TestGFCSafeguardCapsBeforeDCQCN(t *testing.T) {
	// The §7 observation: at incast onset GFC caps the port rate almost
	// immediately (its feedback is hop-local), while DCQCN needs several
	// RTT-scale rounds. So early in the incast the switch queue must
	// stay bounded by GFC even though DCQCN rates are still high.
	net, rps, _ := buildIncast(t, 8)
	topo := net.Topology()
	s1 := topo.MustLookup("S1")
	var maxQ units.Size
	done := false
	var probe func(int32)
	probe = func(int32) {
		if done {
			return
		}
		for _, is := range net.AppendIngressStates(nil) {
			if is.Node == s1 && is.Occupancy > maxQ {
				maxQ = is.Occupancy
			}
		}
		if net.Now() < 2*units.Millisecond {
			net.Engine().After(10*units.Microsecond, probe, 0)
		} else {
			done = true
		}
	}
	net.Engine().After(10*units.Microsecond, probe, 0)
	net.Run(2 * units.Millisecond)
	if maxQ >= 1000*units.KB {
		t.Fatalf("ingress queue reached %v; GFC failed to cap the onset", maxQ)
	}
	// DCQCN has engaged by now.
	for _, rp := range rps {
		if rp.rc == 10*units.Gbps {
			t.Error("a sender never received congestion feedback")
		}
	}
	if net.Drops() != 0 {
		t.Fatalf("drops = %d", net.Drops())
	}
}
