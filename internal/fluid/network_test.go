package fluid

import (
	"context"
	"math/rand"
	"testing"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// twoToOne builds H1,H2 → S → H3 with 10G links everywhere: two senders
// share one egress, so each converges to 5 Gb/s — the fig-5 congestion shape
// as a network.
func twoToOne(t testing.TB) (*topology.Topology, *routing.Table, []NetFlow) {
	t.Helper()
	topo := topology.New()
	h1 := topo.AddHost("H1")
	h2 := topo.AddHost("H2")
	s := topo.AddSwitch("S")
	h3 := topo.AddHost("H3")
	topo.AddLink(h1, s, 10*units.Gbps, units.Microsecond)
	topo.AddLink(h2, s, 10*units.Gbps, units.Microsecond)
	topo.AddLink(s, h3, 10*units.Gbps, units.Microsecond)
	tab := routing.NewSPF(topo)
	var flows []NetFlow
	for _, src := range []topology.NodeID{h1, h2} {
		p, err := tab.Path(src, h3, 1)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, NetFlow{Path: p})
	}
	return topo, tab, flows
}

// chansFor lists every ingress channel of topo: switch ingress ports get the
// given mapping factory's law, host ingress ports are consuming sinks.
func chansFor(t testing.TB, topo *topology.Topology, buffer units.Size, tau units.Time, period units.Time, mk func() Mapping) []NetChannel {
	t.Helper()
	var out []NetChannel
	for n := 0; n < topo.NumNodes(); n++ {
		id := topology.NodeID(n)
		host := topo.Node(id).Kind == topology.Host
		for _, at := range topo.Ports(id) {
			ch := NetChannel{
				Node:     id,
				Port:     at.Port,
				Capacity: at.Link.Capacity,
				Buffer:   buffer,
				Tau:      tau,
				Host:     host,
			}
			if !host {
				ch.Mapping = mk()
				ch.Period = period
			}
			out = append(out, ch)
		}
	}
	return out
}

func stagedSim(t testing.TB) func() Mapping {
	t.Helper()
	return func() Mapping {
		st, err := core.NewStageTableRatio(10*units.Gbps, 294*units.KB, 275*units.KB, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return Staged{st}
	}
}

func TestRunNetValidation(t *testing.T) {
	if _, err := RunNet(NetConfig{}); err == nil {
		t.Error("no channels accepted")
	}
	if _, err := RunNet(NetConfig{Channels: []NetChannel{{Capacity: units.Gbps, Buffer: units.KB}}}); err == nil {
		t.Error("no flows accepted")
	}
	if _, err := RunNet(NetConfig{
		Channels: []NetChannel{{Capacity: units.Gbps, Buffer: units.KB}},
		Flows:    []NetFlow{{}},
	}); err == nil {
		t.Error("empty path accepted")
	}
	topo, _, flows := twoToOne(t)
	if _, err := RunNet(NetConfig{
		Channels: chansFor(t, topo, 300*units.KB, 10*units.Microsecond, 0, stagedSim(t))[:1],
		Flows:    flows,
	}); err == nil {
		t.Error("path over unknown channel accepted")
	}
}

func TestRunNetTwoToOneStaged(t *testing.T) {
	topo, _, flows := twoToOne(t)
	tau := 10 * units.Microsecond
	res, err := RunNet(NetConfig{
		Channels: chansFor(t, topo, 300*units.KB, tau, 0, stagedSim(t)),
		Flows:    flows,
		Horizon:  20 * units.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || res.Drops != 0 {
		t.Fatalf("deadlocked=%v drops=%d on a healthy 2:1", res.Deadlocked, res.Drops)
	}
	// Each sender gets ~5 Gb/s of the shared 10G egress.
	want := units.BytesIn(5*units.Gbps, 20*units.Millisecond)
	for i, d := range res.FlowDelivered {
		if d < want*9/10 || d > want*11/10 {
			t.Errorf("flow %d delivered %v, want ≈%v", i, d, want)
		}
	}
	// The congested ingress queues park inside the stage-1 band
	// (R1 = 5G): above B1, below the table ceiling plus overshoot slack.
	if res.HighWater < 270*units.KB || res.HighWater > 300*units.KB {
		t.Errorf("high water %v, want within the stage-1 band", res.HighWater)
	}
}

func TestRunNetTwoToOnePFC(t *testing.T) {
	topo, _, flows := twoToOne(t)
	tau := 10 * units.Microsecond
	buffer := 300 * units.KB
	xoff := buffer - units.BytesIn(10*units.Gbps, tau)
	mk := func() Mapping {
		return &OnOff{C: 10 * units.Gbps, XOFF: xoff, XON: xoff - 3*units.KB}
	}
	res, err := RunNet(NetConfig{
		Channels: chansFor(t, topo, buffer, tau, 0, mk),
		Flows:    flows,
		Horizon:  20 * units.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || res.Drops != 0 {
		t.Fatalf("deadlocked=%v drops=%d on a healthy 2:1", res.Deadlocked, res.Drops)
	}
	// PFC saws between XON and XOFF + Cτ overshoot; it must stay inside
	// the buffer (that is what the xoff headroom is for).
	if res.HighWater > buffer {
		t.Errorf("high water %v above buffer %v", res.HighWater, buffer)
	}
	if res.HighWater < xoff {
		t.Errorf("high water %v never reached XOFF %v", res.HighWater, xoff)
	}
	want := units.BytesIn(5*units.Gbps, 20*units.Millisecond)
	total := res.FlowDelivered[0] + res.FlowDelivered[1]
	if total < want*2*9/10 {
		t.Errorf("total delivered %v, want ≈%v", total, 2*want)
	}
}

func TestRunNetTimeBased(t *testing.T) {
	topo, _, flows := twoToOne(t)
	m := core.ContinuousMapping{C: 10 * units.Gbps, B0: 153 * units.KB, Bm: 294 * units.KB}
	mk := func() Mapping { return Floored{M: Continuous{m}} }
	res, err := RunNet(NetConfig{
		Channels: chansFor(t, topo, 300*units.KB, 10*units.Microsecond, 52400*units.Nanosecond, mk),
		Flows:    flows,
		Horizon:  20 * units.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || res.Drops != 0 {
		t.Fatalf("deadlocked=%v drops=%d", res.Deadlocked, res.Drops)
	}
	// The sampled feedback oscillates around the mapping's steady point
	// for a 5G drain; the peak stays within the buffer.
	steady := m.SteadyQueue(5 * units.Gbps)
	if res.HighWater < steady || res.HighWater > 300*units.KB {
		t.Errorf("high water %v, want between steady %v and the buffer", res.HighWater, steady)
	}
}

func TestRunNetFillsRegistry(t *testing.T) {
	topo, _, flows := twoToOne(t)
	reg := metrics.New(metrics.Options{})
	reg.Bind(topo, 300*units.KB, 300*units.KB)
	res, err := RunNet(NetConfig{
		Channels: chansFor(t, topo, 300*units.KB, 10*units.Microsecond, 0, stagedSim(t)),
		Flows:    flows,
		Horizon:  10 * units.Millisecond,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := reg.Summary()
	if sum.BytesIn == 0 || sum.BytesOut == 0 {
		t.Fatalf("registry counters not filled: %+v", sum)
	}
	if sum.Drops != 0 {
		t.Errorf("registry drops %d, want 0", sum.Drops)
	}
	// The registry's switch high-water must agree with the solver's own
	// (byte-quantised admits can lag by at most a packet).
	hw := reg.SwitchHighWater()
	if diff := hw - res.HighWater; diff > 2*units.KB || diff < -2*units.KB {
		t.Errorf("registry high water %v vs solver %v", hw, res.HighWater)
	}
	if err := reg.Err(); err != nil {
		t.Errorf("runtime invariants tripped: %v", err)
	}
}

// zeroMapping admits nothing once feedback arrives — a stand-in for a fully
// wedged downstream, to exercise the stall detector.
type zeroMapping struct{}

func (zeroMapping) RateAt(units.Size) units.Rate { return 0 }
func (zeroMapping) LineRate() units.Rate         { return 10 * units.Gbps }

func TestRunNetDeadlockStall(t *testing.T) {
	topo := topology.New()
	h1 := topo.AddHost("H1")
	s1 := topo.AddSwitch("S1")
	s2 := topo.AddSwitch("S2")
	h2 := topo.AddHost("H2")
	topo.AddLink(h1, s1, 10*units.Gbps, units.Microsecond)
	topo.AddLink(s1, s2, 10*units.Gbps, units.Microsecond)
	topo.AddLink(s2, h2, 10*units.Gbps, units.Microsecond)
	tab := routing.NewSPF(topo)
	path, err := tab.Path(h1, h2, 1)
	if err != nil {
		t.Fatal(err)
	}
	buffer := 300 * units.KB
	tau := 10 * units.Microsecond
	var chans []NetChannel
	for n := 0; n < topo.NumNodes(); n++ {
		id := topology.NodeID(n)
		host := topo.Node(id).Kind == topology.Host
		for _, at := range topo.Ports(id) {
			ch := NetChannel{
				Node: id, Port: at.Port, Capacity: at.Link.Capacity,
				Buffer: buffer, Tau: tau, Host: host,
			}
			switch {
			case host:
			case id == s2:
				// S2 refuses everything: the wedge.
				ch.Mapping = zeroMapping{}
			default:
				// S1 pauses its own sender before overflowing, so
				// nothing moves at all once the wedge propagates.
				xoff := buffer - units.BytesIn(10*units.Gbps, tau)
				ch.Mapping = &OnOff{C: 10 * units.Gbps, XOFF: xoff, XON: xoff - 3*units.KB}
			}
			chans = append(chans, ch)
		}
	}
	res, err := RunNet(NetConfig{
		Channels: chans,
		Flows:    []NetFlow{{Path: path}},
		Horizon:  20 * units.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("wedged chain not declared deadlocked (hw %v, delivered %v)", res.HighWater, res.Delivered)
	}
	if res.DeadlockAt <= 0 || res.DeadlockAt >= 20*units.Millisecond {
		t.Errorf("deadlock at %v", res.DeadlockAt)
	}
	if res.Drops != 0 {
		t.Errorf("lossless wedge recorded %d drops", res.Drops)
	}
	if res.End >= 20*units.Millisecond {
		t.Error("run did not stop early on deadlock")
	}
}

func TestRunNetHonoursCancellation(t *testing.T) {
	topo, _, flows := twoToOne(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunNet(NetConfig{
		Channels: chansFor(t, topo, 300*units.KB, 10*units.Microsecond, 0, stagedSim(t)),
		Flows:    flows,
		Horizon:  20 * units.Millisecond,
		Ctx:      ctx,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// fatTreeFlows routes perHost unbounded flows from every host of a k=4
// fat-tree (with a seeded 5 % of its fabric links failed, like a Table 1
// cell) to seeded hosts under other edge switches.
func fatTreeFlows(t testing.TB, seed int64, perHost int) (*topology.Topology, []NetFlow) {
	t.Helper()
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	rng := rand.New(rand.NewSource(seed))
	topo.FailRandomLinks(rng, 0.05)
	tab := routing.NewSPF(topo)
	hosts := topo.Hosts()
	var flows []NetFlow
	for i, src := range hosts {
		for j := 0; j < perHost; j++ {
			dst := hosts[rng.Intn(len(hosts))]
			if dst/2 == src/2 && len(hosts) > 2 {
				dst = hosts[(i+2+2*j)%len(hosts)]
			}
			p, err := tab.Path(src, dst, uint64(len(flows)+1))
			if err != nil {
				continue // the failures cut this pair off
			}
			flows = append(flows, NetFlow{Path: p})
		}
	}
	return topo, flows
}

// TestRunNetAllocsFlatInHorizon holds RunNet to allocating at setup only:
// the same count at 25 and 100 ms, for Period above Tau, below it (where the
// pending-update queue used to gain an entry per period for the whole run)
// and absent.
func TestRunNetAllocsFlatInHorizon(t *testing.T) {
	topo, flows := fatTreeFlows(t, 3, 1)
	tau := 16 * units.Microsecond
	for _, c := range []struct {
		name   string
		period units.Time
		law    func() Mapping
	}{
		{"period-above-tau", 52400 * units.Nanosecond, continuousLaw},
		{"period-below-tau", 4 * units.Microsecond, continuousLaw},
		{"staged", 0, stagedSim(t)},
		{"conceptual", 0, continuousLaw},
	} {
		cfg := NetConfig{
			Channels: chansFor(t, topo, 300*units.KB, tau, c.period, c.law),
			Flows:    flows,
			Step:     2 * units.Microsecond,
		}
		// Two runs apiece: AllocsPerRun rounds the mean down, so a stray
		// allocation elsewhere in the process cannot fail the comparison.
		allocs := func(horizon units.Time) float64 {
			cfg.Horizon = horizon
			return testing.AllocsPerRun(2, func() {
				if _, err := RunNet(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(25*units.Millisecond), allocs(100*units.Millisecond)
		if short != long {
			t.Errorf("%s: %v allocations at 25 ms, %v at 100 ms", c.name, short, long)
		}
	}
}

// BenchmarkRunNet times the integration loop alone: the k=4 fixture (64
// unbounded flows) for 25 ms at the fluid sweeps' 2 µs step, under
// GFC-buffer's stage table and under GFC-time's sampled continuous law.
// ns/step is the figure to compare.
func BenchmarkRunNet(b *testing.B) {
	for _, c := range []struct {
		name   string
		period units.Time
		law    func() Mapping
	}{
		{"staged", 0, stagedSim(b)},
		{"time", 52400 * units.Nanosecond, continuousLaw},
	} {
		b.Run(c.name, func(b *testing.B) {
			topo, flows := fatTreeFlows(b, 3, 4)
			cfg := NetConfig{
				Channels: chansFor(b, topo, 300*units.KB, 16*units.Microsecond, c.period, c.law),
				Flows:    flows,
				Horizon:  25 * units.Millisecond,
				Step:     2 * units.Microsecond,
			}
			steps := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunNet(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
}
