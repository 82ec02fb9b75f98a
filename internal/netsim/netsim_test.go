package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

func pfcFactory() flowcontrol.Factory { return flowcontrol.NewPFC(flowcontrol.PFCConfig{}) }

func gfcFactory() flowcontrol.Factory { return flowcontrol.NewGFCBuffer(flowcontrol.GFCBufferConfig{}) }

func cbfcFactory() flowcontrol.Factory {
	return flowcontrol.NewCBFC(flowcontrol.CBFCConfig{Period: 10 * units.Microsecond})
}

func gfcTimeFactory() flowcontrol.Factory {
	return flowcontrol.NewGFCTime(flowcontrol.GFCTimeConfig{})
}

func baseConfig(f flowcontrol.Factory) Config {
	return Config{
		BufferSize:  300 * units.KB,
		FlowControl: f,
	}
}

// spfFlow builds a flow routed by SPF.
func spfFlow(t *testing.T, topo *topology.Topology, id int, src, dst string, size units.Size) *Flow {
	t.Helper()
	tab := routing.NewSPF(topo)
	s, d := topo.MustLookup(src), topo.MustLookup(dst)
	path, err := tab.Path(s, d, uint64(id))
	if err != nil {
		t.Fatal(err)
	}
	return &Flow{ID: id, Src: s, Dst: d, Size: size, Path: path}
}

func TestSingleFlowDelivery(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	for name, f := range map[string]flowcontrol.Factory{
		"pfc": pfcFactory(), "gfc": gfcFactory(),
		"cbfc": cbfcFactory(), "gfc-time": gfcTimeFactory(),
	} {
		t.Run(name, func(t *testing.T) {
			n, err := New(topo, baseConfig(f))
			if err != nil {
				t.Fatal(err)
			}
			fl := spfFlow(t, topo, 1, "H1", "H2", 150*units.KB)
			if err := n.AddFlow(fl, 0); err != nil {
				t.Fatal(err)
			}
			n.Run(10 * units.Millisecond)
			if !fl.Done() {
				t.Fatalf("flow not done: delivered %v of %v", fl.Delivered, fl.Size)
			}
			if n.Drops() != 0 {
				t.Fatalf("drops = %d", n.Drops())
			}
			// 150KB over 3 links at 10G: ideal ≈ 100 pkts × 1.2µs
			// + pipeline; FCT must be ≥ serialization time of the
			// whole flow on one link and < 10× that.
			ideal := units.TransmissionTime(150*units.KB, 10*units.Gbps)
			if fl.FCT() < ideal {
				t.Fatalf("FCT %v below physical minimum %v", fl.FCT(), ideal)
			}
			if fl.FCT() > 10*ideal {
				t.Fatalf("FCT %v unreasonably slow (ideal %v)", fl.FCT(), ideal)
			}
		})
	}
}

func TestLineRateThroughput(t *testing.T) {
	// A single unbounded flow must achieve ≈ line rate under every FC.
	topo := topology.Linear(2, topology.DefaultLinkParams())
	for name, f := range map[string]flowcontrol.Factory{
		"pfc": pfcFactory(), "gfc": gfcFactory(),
		"cbfc": cbfcFactory(), "gfc-time": gfcTimeFactory(),
	} {
		t.Run(name, func(t *testing.T) {
			n, err := New(topo, baseConfig(f))
			if err != nil {
				t.Fatal(err)
			}
			fl := spfFlow(t, topo, 1, "H1", "H2", 0)
			if err := n.AddFlow(fl, 0); err != nil {
				t.Fatal(err)
			}
			const dur = 10 * units.Millisecond
			n.Run(dur)
			rate := units.RateOf(fl.Delivered, dur)
			if rate < 9.5*units.Gbps {
				t.Fatalf("throughput %v, want ≈10Gbps", rate)
			}
			if n.Drops() != 0 {
				t.Fatalf("drops = %d", n.Drops())
			}
		})
	}
}

func TestTwoToOneFairSharing(t *testing.T) {
	// Figure 5 scenario: two line-rate senders into one receiver. Both
	// must get ≈5G and no packets may be lost.
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	for name, f := range map[string]flowcontrol.Factory{
		"pfc": pfcFactory(), "gfc": gfcFactory(),
		"cbfc": cbfcFactory(), "gfc-time": gfcTimeFactory(),
	} {
		t.Run(name, func(t *testing.T) {
			n, err := New(topo, baseConfig(f))
			if err != nil {
				t.Fatal(err)
			}
			f1 := spfFlow(t, topo, 1, "H1", "H3", 0)
			f2 := spfFlow(t, topo, 2, "H2", "H3", 0)
			if err := n.AddFlow(f1, 0); err != nil {
				t.Fatal(err)
			}
			if err := n.AddFlow(f2, 0); err != nil {
				t.Fatal(err)
			}
			const dur = 20 * units.Millisecond
			n.Run(dur)
			if n.Drops() != 0 {
				t.Fatalf("drops = %d", n.Drops())
			}
			r1 := units.RateOf(f1.Delivered, dur)
			r2 := units.RateOf(f2.Delivered, dur)
			if r1 < 4*units.Gbps || r1 > 6*units.Gbps {
				t.Errorf("f1 rate %v, want ≈5G", r1)
			}
			if r2 < 4*units.Gbps || r2 > 6*units.Gbps {
				t.Errorf("f2 rate %v, want ≈5G", r2)
			}
			total := units.RateOf(f1.Delivered+f2.Delivered, dur)
			if total < 9*units.Gbps {
				t.Errorf("aggregate %v, bottleneck underutilised", total)
			}
		})
	}
}

func TestGFCQueueStabilises(t *testing.T) {
	// Under buffer-based GFC the congested ingress queue must stay
	// strictly below the buffer ceiling and the sender rate must stay
	// positive — hold-and-wait eliminated.
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(gfcFactory())
	var maxQ units.Size
	cfg.Trace = &Trace{
		OnQueue: func(_ units.Time, node topology.NodeID, _ int, q units.Size) {
			if topo.Node(node).Kind == topology.Switch && q > maxQ {
				maxQ = q
			}
		},
	}
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{"H1", "H2"} {
		if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(20 * units.Millisecond)
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
	if maxQ >= cfg.BufferSize {
		t.Fatalf("queue reached buffer ceiling: %v", maxQ)
	}
	// Upstream host senders must never be at rate 0 now.
	h1 := topo.MustLookup("H1")
	if r := n.SenderRate(h1, 0); r <= 0 {
		t.Fatalf("H1 sender rate %v — hold and wait", r)
	}
}

func TestPFCPausesUpstream(t *testing.T) {
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(pfcFactory())
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{"H1", "H2"} {
		if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Run until the queue builds; with a 2:1 overload the ingress
	// queues cross XOFF quickly and hosts get paused at least once.
	sawPause := false
	for i := 0; i < 2000 && !sawPause; i++ {
		n.Run(n.Now() + 10*units.Microsecond)
		h1 := topo.MustLookup("H1")
		if n.SenderRate(h1, 0) == 0 {
			sawPause = true
		}
	}
	if !sawPause {
		t.Fatal("PFC never paused the overloading host")
	}
	if n.Drops() != 0 {
		t.Fatalf("drops = %d", n.Drops())
	}
}

func TestAddFlowValidation(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(pfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	h1 := topo.MustLookup("H1")
	h2 := topo.MustLookup("H2")
	s1 := topo.MustLookup("S1")
	good := spfFlow(t, topo, 1, "H1", "H2", units.KB)

	if err := n.AddFlow(&Flow{Src: h1, Dst: h2}, 0); err == nil {
		t.Error("empty path accepted")
	}
	bad := *good
	bad.Src = h2
	if err := n.AddFlow(&bad, 0); err == nil {
		t.Error("mismatched src accepted")
	}
	bad2 := *good
	bad2.Dst = s1
	if err := n.AddFlow(&bad2, 0); err == nil {
		t.Error("non-host dst accepted")
	}
	// A packet holds its hop index in an int16: the longest path it can
	// walk has math.MaxInt16+1 hops, and a longer one is refused rather
	// than wrapping the index. Only the path's ends are checked, so the
	// filler hops need not be a route.
	for _, hops := range []int{math.MaxInt16 + 1, math.MaxInt16 + 2} {
		long := *good
		long.Path = make([]routing.Hop, hops)
		for i := range long.Path {
			long.Path[i] = good.Path[len(good.Path)-1]
		}
		long.Path[0] = good.Path[0]
		err := n.AddFlow(&long, 0)
		if wantErr := hops > math.MaxInt16+1; (err != nil) != wantErr {
			t.Errorf("%d-hop path: err = %v, want error: %v", hops, err, wantErr)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	if _, err := New(topo, Config{FlowControl: pfcFactory()}); err == nil {
		t.Error("zero buffer accepted")
	}
	if _, err := New(topo, Config{BufferSize: units.KB}); err == nil {
		t.Error("nil factory accepted")
	}
	// A packet holds its size in an int32: an MTU past that is refused
	// rather than wrapping every full-size packet. The buffer is large
	// enough for PFC's thresholds at either MTU.
	for _, mtu := range []units.Size{math.MaxInt32, math.MaxInt32 + 1} {
		cfg := baseConfig(pfcFactory())
		cfg.MTU, cfg.BufferSize = mtu, 1<<44
		_, err := New(topo, cfg)
		if wantErr := mtu > math.MaxInt32; (err != nil) != wantErr {
			t.Errorf("MTU %d: err = %v, want error: %v", mtu, err, wantErr)
		}
	}
	// A ready-mask word covers maxRadix ports (the masks tests build that
	// width): a wider node is an ordinary error under every discipline that
	// picks by mask, and fine under plain FIFO, which never scans ports.
	wide := topology.New()
	sw := wide.AddSwitch("S")
	lp := topology.DefaultLinkParams()
	for i := 0; i <= maxRadix; i++ {
		wide.AddLink(wide.AddHost(fmt.Sprintf("H%d", i)), sw, lp.Capacity, lp.Delay)
	}
	for _, sched := range []Scheduling{SchedInputQueued, SchedVOQ, SchedBlocking, SchedFIFO} {
		cfg := baseConfig(pfcFactory())
		cfg.Scheduling = sched
		_, err := New(wide, cfg)
		if wantErr := sched != SchedFIFO; (err != nil) != wantErr {
			t.Errorf("%d-port switch under %s scheduling: err = %v, want error: %v", maxRadix+1, sched, err, wantErr)
		}
	}
	// A packet holds its arrival port in an int16, so even FIFO refuses a
	// node wider than that.
	widest := topology.New()
	sw = widest.AddSwitch("S")
	for i := 0; i <= math.MaxInt16; i++ {
		widest.AddLink(widest.AddHost(fmt.Sprintf("H%d", i)), sw, lp.Capacity, lp.Delay)
	}
	cfg := baseConfig(pfcFactory())
	cfg.Scheduling = SchedFIFO
	if _, err := New(widest, cfg); err == nil {
		t.Errorf("%d-port switch under FIFO scheduling accepted", math.MaxInt16+1)
	}
}

func TestECNMarking(t *testing.T) {
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(gfcFactory())
	cfg.ECNThreshold = 40 * units.KB
	marked := 0
	total := 0
	cfg.Trace = &Trace{
		OnDeliver: func(_ units.Time, _ *Flow, pkt *Packet) {
			total++
			if pkt.ECN {
				marked++
			}
		},
	}
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{"H1", "H2"} {
		if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(10 * units.Millisecond)
	if total == 0 || marked == 0 {
		t.Fatalf("marked %d of %d packets; expected congestion marking", marked, total)
	}
}

type fixedPacer struct {
	rate units.Rate
	next units.Time
}

func (p *fixedPacer) NextAllowed(now units.Time, _ units.Size) units.Time { return p.next }
func (p *fixedPacer) OnRelease(now units.Time, size units.Size) {
	gap := units.TransmissionTime(size, p.rate)
	if p.next < now {
		p.next = now
	}
	p.next += gap
}

func TestPacerLimitsFlow(t *testing.T) {
	topo := topology.Linear(2, topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(pfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	fl := spfFlow(t, topo, 1, "H1", "H2", 0)
	fl.Pacer = &fixedPacer{rate: 1 * units.Gbps}
	if err := n.AddFlow(fl, 0); err != nil {
		t.Fatal(err)
	}
	const dur = 10 * units.Millisecond
	n.Run(dur)
	rate := units.RateOf(fl.Delivered, dur)
	if rate < 0.9*units.Gbps || rate > 1.1*units.Gbps {
		t.Fatalf("paced rate %v, want ≈1Gbps", rate)
	}
}

// TestFeedbackAccounting: the trace names each feedback emission by its
// receiver's (node, port), and the count per channel equals the registry's
// FeedbackMsgs at that channel's index; in total GFC's feedback stays a tiny
// fraction of capacity.
func TestFeedbackAccounting(t *testing.T) {
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(gfcFactory())
	bases := topo.ChannelBases()
	traced := make([]int64, bases[topo.NumNodes()])
	cfg.Trace = &Trace{
		OnFeedback: func(_ units.Time, node topology.NodeID, port int) {
			traced[bases[node]+port]++
		},
	}
	reg := metrics.New(metrics.Options{})
	cfg.Metrics = reg
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{"H1", "H2"} {
		if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(5 * units.Millisecond)
	var msgs int64
	for id := range topology.NodeID(topo.NumNodes()) {
		for p := range topo.Ports(id) {
			got, want := traced[bases[id]+p], reg.Counter(reg.ChannelIndex(id, p)).FeedbackMsgs
			if got != want {
				t.Errorf("%s port %d: traced %d feedback messages, registry %d",
					topo.Node(id).Name, p, got, want)
			}
			msgs += got
		}
	}
	if msgs == 0 {
		t.Fatal("no feedback recorded under congestion")
	}
	// GFC's overhead must be a tiny fraction of capacity (§4.2: <0.7%).
	wire := units.Size(msgs) * flowcontrol.MessageSize
	frac := float64(wire.Bits()) / (10e9 * (5 * units.Millisecond).Seconds())
	// Several channels share the accounting; even summed it stays small.
	if frac > 0.05 {
		t.Fatalf("feedback consumed %.2f%% of one link-interval", frac*100)
	}
}

// TestChannelNumbering: the topology numbers channels, and everything
// indexed per channel agrees with it. On a fat-tree with failed links and on
// a multi-host ring, every port's cb is ChannelBases()[node] + port, the
// arena holds exactly the channels the bases count, and the bound registry's
// ChannelIndex returns the same index.
func TestChannelNumbering(t *testing.T) {
	failed := topology.FatTree(4, topology.DefaultLinkParams())
	if len(failed.FailRandomLinks(rand.New(rand.NewSource(1)), 0.3)) == 0 {
		t.Fatal("no link failed; the fixture must exercise failed ports")
	}
	for name, topo := range map[string]*topology.Topology{
		"failed-fat-tree": failed,
		"ring":            topology.RingHosts(5, 2, topology.DefaultLinkParams()),
	} {
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(gfcFactory())
			reg := metrics.New(metrics.Options{})
			cfg.Metrics = reg
			n, err := New(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bases := topo.ChannelBases()
			if got, want := len(n.ports), bases[topo.NumNodes()]; got != want || want != 2*topo.NumLinks() {
				t.Fatalf("%d ports, bases count %d channels, topology has %d links", got, want, topo.NumLinks())
			}
			for id := range n.nodes {
				for i := range n.nodes[id].ports {
					p := &n.nodes[id].ports[i]
					if want := bases[id] + i; p.cb != want {
						t.Errorf("node %d port %d: cb %d, ChannelBases says %d", id, i, p.cb, want)
					}
					if got := reg.ChannelIndex(topology.NodeID(id), i); got != p.cb {
						t.Errorf("node %d port %d: cb %d, registry ChannelIndex %d", id, i, p.cb, got)
					}
				}
			}
		})
	}
}

func TestStaggeredStart(t *testing.T) {
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(gfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	f1 := spfFlow(t, topo, 1, "H1", "H3", 0)
	f2 := spfFlow(t, topo, 2, "H2", "H3", 0)
	if err := n.AddFlow(f1, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.AddFlow(f2, 5*units.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Run(10 * units.Millisecond)
	// f1 alone for 5ms at ~10G then shares: delivered ∈ (7.5G·10ms·avg).
	r1 := units.RateOf(f1.Delivered, 10*units.Millisecond)
	if r1 < 6.5*units.Gbps {
		t.Errorf("f1 average %v, want ≈7.5G (solo then shared)", r1)
	}
	r2 := units.RateOf(f2.Delivered, 5*units.Millisecond)
	if r2 < 4*units.Gbps || r2 > 6*units.Gbps {
		t.Errorf("f2 rate %v over its active 5ms, want ≈5G", r2)
	}
}
