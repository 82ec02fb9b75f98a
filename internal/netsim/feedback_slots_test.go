package netsim

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"

	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// delivery is one feedback message as the SetFeedbackObserver tap sees it.
type delivery struct {
	at       units.Time
	from, to topology.NodeID
	m        flowcontrol.Message
}

// emitTap wraps the network's Env and predicts, at emission, when and with
// what payload the message must reach the tap: emission time plus the wire,
// link and processing delay, plus this message's own injected extra — drawn
// from a twin of the network's fault injector, which the network consults in
// this same emission order.
type emitTap struct {
	flowcontrol.Env
	twin *faults.Injector
	want *[]delivery
}

func (e emitTap) Emit(ch int, m flowcontrol.Message) {
	n := (*Network)(e.Env.(*bankEnv))
	down, now := &n.ports[ch], n.eng.Now()
	at := now + units.TransmissionTime(flowcontrol.MessageSize, down.capacity) + down.link.Delay + n.cfg.ProcDelay
	_, extra := e.twin.FeedbackVerdict(down.link.ID, down.owner.id, m.Kind, now)
	at += extra
	*e.want = append(*e.want, delivery{at, down.owner.id, down.peer.owner.id, m})
	e.Env.Emit(ch, m)
}

// TestFeedbackSlotsUnderReordering: when an injected feedback delay lets a
// later message overtake an earlier one on the same channel, every emitted
// message must still reach the tap exactly once, with its own payload, at
// emission time plus its own sampled delay. Delivery slots are per message,
// so this holds by construction; a FIFO of payloads per channel (the packet
// path's trick) would hand the overtaking delivery the overtaken payload and
// fail here.
func TestFeedbackSlotsUnderReordering(t *testing.T) {
	const horizon = 2 * units.Millisecond
	topo := topology.RingHosts(3, 1, topology.DefaultLinkParams())
	delayed, err := faults.Preset("feedback-delay")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := delayed.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T) uint64 {
		var want, got []delivery
		tap := emitTap{want: &want}
		// A 2 µs credit period is well inside the preset's delay spread, so
		// consecutive adverts of one channel do overtake each other.
		cfg := baseConfig(func(env flowcontrol.Env, chans int) flowcontrol.Bank {
			tap.Env = env
			return flowcontrol.NewCBFC(flowcontrol.CBFCConfig{Period: 2 * units.Microsecond})(tap, chans)
		})
		cfg.Faults, tap.twin = plan.NewInjector(7), plan.NewInjector(7)
		n, err := New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.SetFeedbackObserver(func(ch int, m flowcontrol.Message) {
			up := &n.ports[ch]
			got = append(got, delivery{n.Now(), up.peer.owner.id, up.owner.id, m})
		})
		for i, pair := range [][2]string{{"H1", "H2"}, {"H2", "H3"}, {"H3", "H1"}} {
			if err := n.AddFlow(spfFlow(t, topo, i+1, pair[0], pair[1], 0), 0); err != nil {
				t.Fatal(err)
			}
		}
		n.Run(horizon)

		// The tap's view in delivery order is the run's fingerprint.
		h := fnv.New64a()
		overtakes := 0
		last := map[[2]topology.NodeID]int64{}
		for _, d := range got {
			fmt.Fprintln(h, d)
			ch := [2]topology.NodeID{d.from, d.to}
			if d.m.FCCL < last[ch] {
				overtakes++ // a stale advert arrived after a fresher one
			}
			last[ch] = d.m.FCCL
		}
		if overtakes == 0 {
			t.Error("no message overtook another: the run exercised no reordering")
		}
		// Every prediction due inside the horizon, and nothing else.
		var due, seen []string
		for _, d := range want {
			if d.at <= horizon {
				due = append(due, fmt.Sprint(d))
			}
		}
		for _, d := range got {
			seen = append(seen, fmt.Sprint(d))
		}
		sort.Strings(due)
		sort.Strings(seen)
		if !slices.Equal(due, seen) {
			t.Errorf("tap saw %d deliveries, %d were due, and the two differ", len(seen), len(due))
		}
		t.Logf("%d deliveries, %d overtaking", len(got), overtakes)
		return h.Sum64()
	}
	t.Run("feedback-delay", func(t *testing.T) {
		if a, b := run(t), run(t); a != b {
			t.Errorf("two same-seed runs hash %x and %x", a, b)
		}
	})
}
