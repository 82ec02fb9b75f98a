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

// This file pins the ready masks (scheduler.go) to the round-robin modulo
// walks they replaced. The walks live on here as the reference: each ref*
// function is the pre-mask scan, reading only the queues themselves (never a
// mask, never inqOut), so a mask that drifts from its queues or a pick that
// breaks round-robin order shows up as a disagreement.

// refNextFromInputs is the linear scan nextFromInputs replaced: walk the
// owner's inputs from the cursor; the first whose FIFO head is bound for p is
// the only candidate, and flow control's verdict on it is final.
func refNextFromInputs(n *Network, p *port) (*Packet, int, units.Time) {
	ports := p.owner.ports
	for j := 0; j < len(ports); j++ {
		in := &ports[(int(n.rrVoq[p.cb])+j)%len(ports)]
		q := &n.inq[in.cb]
		if q.empty() {
			continue
		}
		head := q.front()
		if head.Path[head.hop].Port != p.local {
			continue // head-of-line: only the head is eligible
		}
		ok, wake := n.senders[p.cb].TrySend(head.Size)
		if !ok {
			return nil, -1, wake
		}
		return head, in.local, 0
	}
	return nil, -1, units.Never
}

// refNextIngress is the forwarding core's linear scan: the first non-empty
// ingress FIFO from the cursor.
func refNextIngress(n *Network, nd *node) int {
	for j := 0; j < len(nd.ports); j++ {
		c := &nd.ports[(int(n.fwdCursor[nd.id])+j)%len(nd.ports)]
		if !n.inq[c.cb].empty() {
			return c.local
		}
	}
	return -1
}

// refNextPacket is nextPacket's linear scan over the egress's queue slots.
func refNextPacket(n *Network, p *port) (*Packet, int) {
	base := p.voqBase
	for i := 0; i < p.slots; i++ {
		k := (int(n.rrVoq[p.cb]) + i) % p.slots
		if v := &n.voqs[base+k]; !v.empty() {
			return v.front(), k
		}
	}
	return nil, -1
}

// refNextQueued is nextQueued's linear scan: paused queues are skipped and
// the earliest of their wakes is returned when nothing may send.
func refNextQueued(n *Network, p *port) (*Packet, int, units.Time) {
	qs := n.queueSenders[p.cb]
	base := p.voqBase
	minWake := units.Never
	for i := 0; i < p.slots; i++ {
		k := (int(n.rrVoq[p.cb]) + i) % p.slots
		v := &n.voqs[base+k]
		if v.empty() {
			continue
		}
		head := v.front()
		ok, wake := qs.TrySendQueue(k, head.Size)
		if !ok {
			if wake < minWake {
				minWake = wake
			}
			continue
		}
		return head, k, 0
	}
	return nil, -1, minWake
}

// stubSender is a flow controller whose verdicts the test dictates. refuse
// gates the whole channel (TrySend); paused[q] gates one queue and wakes[q]
// is the retry time it reports. calls counts TrySend probes.
type stubSender struct {
	refuse bool
	wake   units.Time
	paused []bool
	wakes  []units.Time
	calls  int
}

func (s *stubSender) TrySend(units.Size) (bool, units.Time) {
	s.calls++
	if s.refuse {
		return false, s.wake
	}
	return true, 0
}
func (s *stubSender) TrySendQueue(q int, _ units.Size) (bool, units.Time) {
	if s.paused[q] {
		return false, s.wakes[q]
	}
	return true, 0
}
func (s *stubSender) Queues() int                        { return len(s.paused) }
func (s *stubSender) OnSent(units.Size, units.Time)      {}
func (s *stubSender) OnFeedback(flowcontrol.Message)     {}
func (s *stubSender) Rate() units.Rate                   { return 0 }
func (s *stubSender) reset(refuse bool, wake units.Time) { s.refuse, s.wake, s.calls = refuse, wake, 0 }

// star builds one switch with radix hosts under cfg and returns the network
// and the switch.
func star(t *testing.T, radix int, cfg Config) (*Network, *node) {
	t.Helper()
	lp := topology.DefaultLinkParams()
	topo := topology.New()
	sw := topo.AddSwitch("S")
	for i := 0; i < radix; i++ {
		topo.AddLink(topo.AddHost(fmt.Sprintf("H%d", i)), sw, lp.Capacity, lp.Delay)
	}
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, n.nodes[sw]
}

// boundFor fabricates a packet sitting at nd whose next hop leaves by port
// out, as arrive would have left it.
func boundFor(n *Network, nd *node, in, out int, seq int64) *Packet {
	pkt := n.newPacket()
	pkt.Flow = &Flow{ID: int(seq)}
	pkt.Seq, pkt.Size = seq, 1000
	pkt.Path = []routing.Hop{{Node: nd.id, Port: out}}
	pkt.arrivalPort = in
	return pkt
}

// checkMasks asserts, over the whole network, that every mask bit says what
// its queue says: inqOut/inReady/inBusy against the ingress FIFOs, slotReady
// against the egress queue slots, and no bit beyond the candidates.
func checkMasks(t *testing.T, n *Network, when string) {
	t.Helper()
	for _, nd := range n.nodes {
		want := make([]uint64, len(nd.ports)) // per egress: inputs whose head is bound for it
		var busy uint64
		for i := range nd.ports {
			ch := nd.cb + i
			if ch != nd.ports[i].cb {
				t.Fatalf("%s: node %d port %d: channel arithmetic %d != cb %d", when, nd.id, i, ch, nd.ports[i].cb)
			}
			if &n.ports[ch] != &nd.ports[i] {
				t.Fatalf("%s: node %d port %d: cb %d is not its arena index", when, nd.id, i, ch)
			}
			q := &n.inq[ch]
			if q.empty() {
				if n.inqOut[ch] != -1 {
					t.Fatalf("%s: node %d in %d: empty FIFO but inqOut=%d", when, nd.id, i, n.inqOut[ch])
				}
				continue
			}
			head := q.front()
			out := head.Path[head.hop].Port
			if int(n.inqOut[ch]) != out {
				t.Fatalf("%s: node %d in %d: head bound for %d but inqOut=%d", when, nd.id, i, out, n.inqOut[ch])
			}
			busy |= 1 << uint(i)
			want[out] |= 1 << uint(i)
		}
		if got := n.inBusy[nd.id]; got != busy {
			t.Fatalf("%s: node %d: inBusy %#x, FIFOs say %#x", when, nd.id, got, busy)
		}
		for e := range nd.ports {
			p := &nd.ports[e]
			if got := n.inReady[p.cb]; got != want[e] {
				t.Fatalf("%s: node %d egress %d: inReady %#x, FIFO heads say %#x", when, nd.id, e, got, want[e])
			}
			var slots uint64
			for s := 0; s < p.slots; s++ {
				if !n.voqs[p.voqBase+s].empty() {
					slots |= 1 << uint(s)
				}
			}
			if got := n.slotReady[p.cb]; got != slots {
				t.Fatalf("%s: node %d egress %d: slotReady %#x, queues say %#x", when, nd.id, e, got, slots)
			}
		}
	}
}

// TestNextBit pins the primitive: first set bit at or after the cursor,
// wrapping — for every single-bit and two-bit mask at every cursor.
func TestNextBit(t *testing.T) {
	for a := 0; a < 64; a++ {
		for b := a; b < 64; b++ {
			m := uint64(1)<<uint(a) | uint64(1)<<uint(b)
			for from := 0; from < 64; from++ {
				want := a
				if from > a && from <= b {
					want = b
				}
				if got := nextBit(m, from); got != want {
					t.Fatalf("nextBit(bits %d,%d; from %d) = %d, want %d", a, b, from, got, want)
				}
			}
		}
	}
	for i, n := 0, 7; i < n; i++ {
		if got, want := succ(i, n), (i+1)%n; got != want {
			t.Fatalf("succ(%d,%d) = %d, want %d", i, n, got, want)
		}
	}
}

// forEachRadix runs fn for every width a mask word covers, each with its own
// seeded source of occupancy patterns.
func forEachRadix(t *testing.T, fn func(t *testing.T, radix int, rng *rand.Rand)) {
	for radix := 1; radix <= maxRadix; radix++ {
		fn(t, radix, rand.New(rand.NewSource(int64(radix))))
	}
}

// countingSender counts the TrySend probes made through a wired Sender.
type countingSender struct {
	flowcontrol.Sender
	calls int
}

func (s *countingSender) TrySend(sz units.Size) (bool, units.Time) {
	s.calls++
	return s.Sender.TrySend(sz)
}

// TestInputPicksMatchReferenceScan: radix 1…64 × random ingress occupancy ×
// every egress × every cursor, nextFromInputs (flow control granting, and
// refusing the first eligible input) and nextIngress equal their scans, on
// both gates. On the Sender path a stub dictates the verdict and
// nextFromInputs may probe it at most once, as the scan does. On the direct
// path the GFC-buffer network reads each egress's rate limiter in place: the
// test parks the limiter to refuse, the scan probes the GFC sender bound to
// the same slot (at most once), and nextFromInputs probes no Sender at all.
// The FIFOs are then drained through popInq and the masks must return to
// zero.
func TestInputPicksMatchReferenceScan(t *testing.T) {
	for _, direct := range []bool{false, true} {
		t.Run(fmt.Sprintf("direct=%v", direct), func(t *testing.T) {
			forEachRadix(t, func(t *testing.T, radix int, rng *rand.Rand) {
				inputPicks(t, radix, rng, direct)
			})
		})
	}
}

func inputPicks(t *testing.T, radix int, rng *rand.Rand, direct bool) {
	n, nd := star(t, radix, baseConfig(gfcFactory()))
	if n.limiters == nil {
		t.Fatal("GFC-buffer network wired without its limiters in place")
	}
	stub := &stubSender{}
	counts := make([]*countingSender, len(nd.ports))
	for e := range nd.ports {
		ch := nd.ports[e].cb
		if direct {
			counts[e] = &countingSender{Sender: n.senders[ch]}
			n.senders[ch] = counts[e]
		} else {
			n.senders[ch] = stub
		}
	}
	if !direct {
		n.limiters = nil
	}
	// gate sets egress e's verdict and zeroes the probe counts.
	gate := func(e int, refuse bool, wake units.Time) {
		stub.reset(refuse, wake)
		if !direct {
			return
		}
		counts[e].calls = 0
		// At line rate the limiter allows the next packet when the last
		// one ended: now (0) to grant, wake to refuse.
		end := units.Time(0)
		if refuse {
			end = wake
		}
		n.limiters[nd.ports[e].cb].OnSent(end, 1)
	}
	probes := func(e int) int {
		if direct {
			return counts[e].calls
		}
		return stub.calls
	}
	var seq int64
	for pattern := 0; pattern < 4; pattern++ {
		fill := rng.Float64()
		for in := 0; in < radix; in++ {
			if rng.Float64() >= fill {
				continue
			}
			for depth := 1 + rng.Intn(3); depth > 0; depth-- {
				seq++
				n.pushInq(nd, in, boundFor(n, nd, in, rng.Intn(radix), seq))
			}
		}
		checkMasks(t, n, fmt.Sprintf("radix %d pattern %d filled", radix, pattern))
		for cursor := 0; cursor < radix; cursor++ {
			n.fwdCursor[nd.id] = int32(cursor)
			if got, want := n.nextIngress(nd), refNextIngress(n, nd); got != want {
				t.Fatalf("radix %d cursor %d: nextIngress = %d, scan says %d", radix, cursor, got, want)
			}
			for e := range nd.ports {
				p := &nd.ports[e]
				n.rrVoq[p.cb] = int32(cursor)
				for _, refuse := range []bool{false, true} {
					wake := units.Time(1000 + cursor)
					gate(e, refuse, wake)
					wantPkt, wantIn, wantWake := refNextFromInputs(n, p)
					refCalls := probes(e)
					gate(e, refuse, wake)
					gotPkt, gotIn, gotWake := n.nextFromInputs(p)
					if gotPkt != wantPkt || gotIn != wantIn || gotWake != wantWake {
						t.Fatalf("radix %d egress %d cursor %d refuse %v: nextFromInputs = (%v, %d, %v), scan says (%v, %d, %v)",
							radix, e, cursor, refuse, gotPkt, gotIn, gotWake, wantPkt, wantIn, wantWake)
					}
					want := refCalls
					if direct {
						want = 0
					}
					if calls := probes(e); calls != want || refCalls > 1 {
						t.Fatalf("radix %d egress %d cursor %d refuse %v: %d TrySend probes, want %d; scan made %d (at most one input may be tried)",
							radix, e, cursor, refuse, calls, want, refCalls)
					}
				}
			}
		}
		// Drain in random input order through the helper.
		for {
			n.fwdCursor[nd.id] = int32(rng.Intn(radix))
			in := n.nextIngress(nd)
			if in < 0 {
				break
			}
			n.recyclePacket(n.popInq(nd, in))
		}
		checkMasks(t, n, fmt.Sprintf("radix %d pattern %d drained", radix, pattern))
	}
}

// TestSlotPicksMatchReferenceScan: the same for the egress queue picks —
// nextPacket over VOQ slots (slots = radix) and nextQueued over FlowQueues
// (1…64), the latter with random queues paused: a paused queue is skipped
// and, when nothing may send, the earliest wake comes back.
func TestSlotPicksMatchReferenceScan(t *testing.T) {
	forEachRadix(t, func(t *testing.T, radix int, rng *rand.Rand) {
		cfg := baseConfig(gfcFactory())
		cfg.Scheduling = SchedVOQ
		n, nd := star(t, radix, cfg)
		p := &nd.ports[rng.Intn(radix)]
		var seq int64
		for pattern := 0; pattern < 4; pattern++ {
			fill := rng.Float64()
			for in := 0; in < radix; in++ {
				if rng.Float64() < fill {
					seq++
					n.enqueue(p, boundFor(n, nd, in, p.local, seq))
				}
			}
			checkMasks(t, n, fmt.Sprintf("voq radix %d pattern %d", radix, pattern))
			for cursor := 0; cursor < radix; cursor++ {
				n.rrVoq[p.cb] = int32(cursor)
				gotPkt, gotSlot := n.nextPacket(p)
				wantPkt, wantSlot := refNextPacket(n, p)
				if gotPkt != wantPkt || gotSlot != wantSlot {
					t.Fatalf("voq radix %d cursor %d: nextPacket = (%v, %d), scan says (%v, %d)",
						radix, cursor, gotPkt, gotSlot, wantPkt, wantSlot)
				}
			}
			for {
				_, slot := n.nextPacket(p)
				if slot < 0 {
					break
				}
				n.recyclePacket(n.dequeue(p, slot))
			}
			checkMasks(t, n, fmt.Sprintf("voq radix %d pattern %d drained", radix, pattern))
		}
	})

	forEachRadix(t, func(t *testing.T, queues int, rng *rand.Rand) {
		cfg := baseConfig(flowcontrol.NewBFCQueues(queues))
		cfg.FlowQueues = queues
		n, nd := star(t, 2, cfg)
		p := &nd.ports[1]
		stub := &stubSender{paused: make([]bool, queues), wakes: make([]units.Time, queues)}
		n.queueSenders[p.cb] = stub
		for pattern := 0; pattern < 4; pattern++ {
			// One packet per distinct flow fills queues 0…queues-1 in
			// order (a new flow takes the lowest empty queue); dequeuing
			// a random subset leaves the pattern.
			for q := 0; q < queues; q++ {
				n.enqueue(p, boundFor(n, nd, 0, p.local, int64(pattern*queues+q+1)))
			}
			fill := rng.Float64()
			for q := 0; q < queues; q++ {
				if rng.Float64() >= fill {
					n.recyclePacket(n.dequeue(p, q))
				}
				stub.paused[q] = rng.Intn(3) == 0
				stub.wakes[q] = units.Never
				if rng.Intn(2) == 0 {
					stub.wakes[q] = units.Time(1 + rng.Intn(1000))
				}
			}
			checkMasks(t, n, fmt.Sprintf("bfc %d queues pattern %d", queues, pattern))
			for cursor := 0; cursor < queues; cursor++ {
				n.rrVoq[p.cb] = int32(cursor)
				gotPkt, gotSlot, gotWake := n.nextQueued(p)
				wantPkt, wantSlot, wantWake := refNextQueued(n, p)
				if gotPkt != wantPkt || gotSlot != wantSlot || gotWake != wantWake {
					t.Fatalf("bfc %d queues cursor %d: nextQueued = (%v, %d, %v), scan says (%v, %d, %v)",
						queues, cursor, gotPkt, gotSlot, gotWake, wantPkt, wantSlot, wantWake)
				}
			}
			for q := 0; q < queues; q++ {
				if !n.voqs[p.voqBase+q].empty() {
					n.recyclePacket(n.dequeue(p, q))
				}
			}
			checkMasks(t, n, fmt.Sprintf("bfc %d queues pattern %d drained", queues, pattern))
		}
	})
}

// TestMasksTrackQueuesUnderTraffic runs seeded congested fat-trees under every
// discipline — input-queued, blocking with a 2-packet TX ring that keeps the
// forwarding core stalling, VOQ, and BFC's per-flow queues — takes a link
// administratively down and up mid-run and checks checkMasks over the whole
// network every few hundred events.
func TestMasksTrackQueuesUnderTraffic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"input-queued", func() Config { return baseConfig(pfcFactory()) }},
		{"blocking", func() Config {
			c := baseConfig(pfcFactory())
			c.Scheduling, c.TxRing = SchedBlocking, 2
			return c
		}},
		{"voq", func() Config {
			c := baseConfig(gfcFactory())
			c.Scheduling = SchedVOQ
			return c
		}},
		{"flow-queues", func() Config {
			c := baseConfig(flowcontrol.NewBFCQueues(4))
			c.FlowQueues = 4
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := topology.FatTree(4, topology.DefaultLinkParams())
			n, err := New(topo, tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			tab := routing.NewSPF(topo)
			hosts := topo.Hosts()
			for id := 1; id <= 3*len(hosts); id++ {
				// Two thirds of the traffic converges on four hosts.
				src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(4)]
				if id%3 == 0 {
					dst = hosts[rng.Intn(len(hosts))]
				}
				if src == dst {
					continue
				}
				path, err := tab.Path(src, dst, uint64(id))
				if err != nil {
					t.Fatal(err)
				}
				f := &Flow{ID: id, Src: src, Dst: dst, Path: path}
				if err := n.AddFlow(f, units.Time(rng.Intn(20))*units.Microsecond); err != nil {
					t.Fatal(err)
				}
			}
			flap := topo.LinkBetween(topo.MustLookup("E1"), topo.MustLookup("A1")).ID
			eng := n.Engine()
			stalls := 0
			for events := 1; eng.Now() < 400*units.Microsecond && eng.Step(); events++ {
				switch events {
				case 10000:
					n.SetLinkAdminState(flap, true)
				case 20000:
					n.SetLinkAdminState(flap, false)
				}
				if events%300 == 0 {
					checkMasks(t, n, fmt.Sprintf("%s after %d events", tc.name, events))
					for _, b := range n.fwdBlocked {
						if b != nil {
							stalls++
						}
					}
				}
			}
			checkMasks(t, n, tc.name+" at end")
			if eng.Fired() < 25000 {
				t.Fatalf("only %d events ran; the admin-down/up fault never happened", eng.Fired())
			}
			if n.TotalDelivered() == 0 {
				t.Fatal("nothing delivered")
			}
			if n.cfg.Scheduling == SchedBlocking && stalls == 0 {
				t.Fatal("the forwarding core never stalled on a full TX ring")
			}
			if got := n.Drops(); got != 0 {
				t.Fatalf("%d drops on a lossless fabric", got)
			}
		})
	}
}
