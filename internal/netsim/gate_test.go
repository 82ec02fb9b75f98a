package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// incastCell builds a k=4 fat-tree under f with every other host sending an
// unbounded flow to H0 and one more flow to a random host, so the rate-gated
// schemes slow their senders within microseconds. Trace records are folded
// into h when it is non-nil.
func incastCell(t *testing.T, f flowcontrol.Factory, h *traceFold) *Network {
	t.Helper()
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	cfg := baseConfig(f)
	if h != nil {
		cfg.Trace = h.trace()
	}
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	hosts := topo.Hosts()
	id := 0
	add := func(src, dst topology.NodeID, size units.Size) {
		id++
		path, err := tab.Path(src, dst, uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AddFlow(&Flow{ID: id, Src: src, Dst: dst, Size: size, Path: path}, units.Time(rng.Intn(20))*units.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range hosts[1:] {
		add(src, hosts[0], 0)
		if dst := hosts[rng.Intn(len(hosts))]; dst != src {
			add(src, dst, units.Size(1+rng.Intn(400))*units.KB)
		}
	}
	return n
}

// traceFold hashes a run's transmissions, deliveries and feedback.
type traceFold struct{ h uint64 }

func (f *traceFold) mix(vs ...uint64) {
	for _, v := range vs {
		f.h = (f.h ^ v) * 1099511628211
	}
}

func (f *traceFold) trace() *Trace {
	f.h = 14695981039346656037
	return &Trace{
		OnTransmit: func(at units.Time, node topology.NodeID, port int, pkt *Packet) {
			f.mix(1, uint64(at), uint64(node), uint64(port), uint64(pkt.Flow.ID), uint64(pkt.Seq))
		},
		OnDeliver: func(at units.Time, fl *Flow, pkt *Packet) {
			f.mix(2, uint64(at), uint64(fl.ID), uint64(pkt.Seq))
		},
		OnFeedback: func(at units.Time, from, to topology.NodeID, wire units.Size) {
			f.mix(3, uint64(at), uint64(from), uint64(to), uint64(wire))
		},
	}
}

// rateGated are the schemes whose egress gate netsim reads in place.
var rateGated = []struct {
	name string
	f    func() flowcontrol.Factory
}{
	{"gfc-buffer", gfcFactory},
	{"gfc-time", gfcTimeFactory},
	{"gfc-conceptual", func() flowcontrol.Factory {
		return flowcontrol.NewGFCConceptual(flowcontrol.GFCConceptualConfig{})
	}},
}

// TestDirectGateIsSchemeGate: on a k=4 incast cell of each rate-gated
// scheme, before every event and on every wired channel — so at every state
// a kick can read — the limiter read in place (trySend) gives the same (ok,
// wake) as the scheme's own Sender.TrySend, including GFC-time's link-init
// hold before its first credit advertisement; and the whole run, traced and
// hashed, is the same when kick and completeTx go through the Senders
// instead.
func TestDirectGateIsSchemeGate(t *testing.T) {
	const horizon = 2 * units.Millisecond
	for _, sc := range rateGated {
		t.Run(sc.name, func(t *testing.T) {
			var direct traceFold
			n := incastCell(t, sc.f(), &direct)
			if n.limiters == nil {
				t.Fatal("rate-gated scheme wired without its limiters in place")
			}
			eng := n.Engine()
			var checks, held, paced int
			for {
				for ch, s := range n.senders {
					if s == nil {
						continue
					}
					ok, wake := n.trySend(ch, n.cfg.MTU)
					wantOK, wantWake := s.TrySend(n.cfg.MTU)
					if ok != wantOK || wake != wantWake {
						t.Fatalf("t=%v channel %d: in place (%v, %v), Sender.TrySend (%v, %v)",
							eng.Now(), ch, ok, wake, wantOK, wantWake)
					}
					checks++
					switch {
					case !ok && wake == units.Never:
						held++
					case !ok:
						paced++
					}
				}
				if eng.Now() > horizon || !eng.Step() {
					break
				}
			}
			t.Logf("%d checks over %d events: %d held, %d paced", checks, eng.Fired(), held, paced)
			if paced == 0 {
				t.Error("no limiter ever refused a packet: the cell never exercised the rate gate")
			}
			if (sc.name == "gfc-time") != (held > 0) {
				t.Errorf("%d checks saw a link-init hold; want some exactly for gfc-time", held)
			}

			var viaSenders traceFold
			m := incastCell(t, sc.f(), &viaSenders)
			m.limiters = nil // the senders still point at the slots
			for m.Now() <= horizon && m.Engine().Step() {
			}
			if direct.h != viaSenders.h || n.Engine().Fired() != m.Engine().Fired() {
				t.Errorf("in place: %d events, trace %x; through the Senders: %d events, trace %x",
					n.Engine().Fired(), direct.h, m.Engine().Fired(), viaSenders.h)
			}
		})
	}
}

// TestLimitersOnlyForRateGatedSchemes: the direct gate is chosen from the
// wired scheme — PFC, CBFC and BFC keep the Sender path.
func TestLimitersOnlyForRateGatedSchemes(t *testing.T) {
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	for _, tc := range []struct {
		cfg  Config
		want bool
	}{
		{baseConfig(gfcFactory()), true},
		{baseConfig(gfcTimeFactory()), true},
		{baseConfig(cbfcFactory()), false},
		{baseConfig(flowcontrol.NewPFC(flowcontrol.PFCConfig{})), false},
		{Config{BufferSize: 300 * units.KB, FlowQueues: 4, FlowControl: flowcontrol.NewBFCQueues(4)}, false},
	} {
		n, err := New(topo, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := n.limiters != nil; got != tc.want {
			t.Errorf("%s: limiters in place = %v, want %v", fmt.Sprintf("%T", n.senders[0]), got, tc.want)
		}
	}
}
