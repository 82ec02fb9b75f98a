package netsim

import (
	"math/bits"
	"slices"

	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// This file is the egress scheduling and host injection machinery: which
// packet a transmitter picks next (kick, nextFromInputs, nextQueued), the
// SchedBlocking forwarding core (forward), and the host NIC refill path
// (refill, nextFlow).
//
// Both retry timers — kick and refill — are events of the Network's kick and
// refill handlers, naming the channel or the host. Scheduling an earlier wake
// cancels the pending later event instead of piling up guarded no-op events:
// with generation-counted cancellation in eventsim this is O(log n) and
// allocation-free. Dropping a superseded timer never loses a wake-up, because
// every blocked kick or refill re-derives and re-schedules its own next wake.

// hostQueueDepth is how many packets a host NIC keeps queued: one, so release
// is gated on transmission and flow pacers are exact.
const hostQueueDepth = 1

// refill keeps the host NIC queue at hostQueueDepth, drawing packets from
// active flows round-robin and honouring per-flow pacers.
func (n *Network) refill(h *node) {
	if h.kind != topology.Host || len(h.ports) == 0 {
		return
	}
	p := &h.ports[0]
	now := n.eng.Now()
	for p.totalQueued() < hostQueueDepth {
		j, wake := n.nextFlow(h, now)
		if j < 0 {
			if wake != units.Never && wake > now {
				n.scheduleRefill(h, wake)
			}
			return
		}
		f := h.flows[j]
		size := f.remaining(n.cfg.MTU)
		if size > n.cfg.MTU {
			size = n.cfg.MTU
		}
		if f.Pacer != nil {
			f.Pacer.OnRelease(now, size)
		}
		f.released += size
		pkt := n.newPacket()
		pkt.Flow, pkt.Seq, pkt.Size = f, f.seq, size
		pkt.Path = f.Path
		pkt.arrivalPort = -1
		f.seq++
		if f.Size > 0 && f.released >= f.Size {
			h.dropFlow(j)
		}
		n.enqueue(p, pkt)
	}
	n.kick(p)
}

// nextFlow picks the next flow on h whose pacer lets it release now,
// round-robin from the cursor, and returns its index in h.flows; when there
// is none it returns -1 and the earliest pacer wake time.
//
// The order is that of a cursor over every flow the host ever started,
// skipping the finished ones, which h.flows no longer holds: rrFlow counts the
// live flows before that cursor, so it may equal len(h.flows). The full list's
// cursor wrapped to its start when the pick was its last entry — the newest
// flow — and otherwise stepped past the pick, toward flows started later.
func (n *Network) nextFlow(h *node, now units.Time) (int, units.Time) {
	wake := units.Never
	nf := len(h.flows)
	j := h.rrFlow
	if j >= nf {
		j = 0
	}
	for i := 0; i < nf; i, j = i+1, succ(j, nf) {
		f := h.flows[j]
		if f.Pacer != nil {
			size := f.remaining(n.cfg.MTU)
			if size > n.cfg.MTU {
				size = n.cfg.MTU
			}
			if na := f.Pacer.NextAllowed(now, size); na > now {
				if na < wake {
					wake = na
				}
				continue
			}
		}
		h.rrFlow = j + 1
		if f == h.newest {
			h.rrFlow = 0
		}
		return j, 0
	}
	return -1, wake
}

// addFlow appends a started flow to h's round-robin.
func (h *node) addFlow(f *Flow) {
	h.flows = append(h.flows, f)
	h.newest = f
}

// dropFlow removes h.flows[j], whose last byte was released, keeping the
// cursor on the same live flow.
func (h *node) dropFlow(j int) {
	h.flows = slices.Delete(h.flows, j, j+1)
	if j < h.rrFlow {
		h.rrFlow--
	}
}

// scheduleRefill arms the host's refill timer for time at, replacing a
// pending later wake. h.refillAt is Never exactly when no timer is pending.
func (n *Network) scheduleRefill(h *node, at units.Time) {
	if h.refillAt <= at {
		return // an earlier (or same) wake is already pending
	}
	if h.refillAt != units.Never {
		n.eng.Cancel(h.refillEv)
	}
	h.refillAt = at
	h.refillEv = n.eng.At(at, n.refillFn, int32(h.id))
}

// kick tries to start a transmission on p. When flow control blocks the
// queued traffic, it schedules a retry at the wake time (feedback events also
// re-kick).
func (n *Network) kick(p *port) {
	if p.busy || p.adminDown || p.failed {
		return
	}
	nd := p.owner
	onSwitch := nd.kind == topology.Switch
	var pkt *Packet
	freed := -1         // input port whose FIFO head we consumed
	fromTxRing := false // the packet left a SchedBlocking TX ring
	wake := units.Never
	if p.sched == SchedInputQueued && onSwitch {
		if pkt, freed, wake = n.nextFromInputs(p); pkt != nil {
			n.popInq(nd, freed)
			n.rrVoq[p.cb] = int32(succ(freed, len(nd.ports)))
		}
	} else if n.fq > 0 {
		var slot int
		if pkt, slot, wake = n.nextQueued(p); pkt != nil {
			pkt = n.dequeue(p, slot)
		}
	} else if head, slot := n.nextPacket(p); head != nil {
		var ok bool
		if ok, wake = n.trySend(p.cb, head.Size); ok {
			pkt = n.dequeue(p, slot)
			fromTxRing = p.sched == SchedBlocking && onSwitch
		}
	}
	if pkt == nil {
		if wake != units.Never && wake > n.eng.Now() {
			n.scheduleKick(p, wake)
		}
		return
	}
	p.busy = true
	dur := units.TransmissionTime(pkt.Size, p.capacity)
	p.txPkt, p.txDur = pkt, dur
	n.eng.After(dur, n.txDoneFn, int32(p.cb))
	if freed >= 0 {
		// The freed input's new head may target an idle egress.
		if out := n.inqOut[nd.cb+freed]; out >= 0 {
			n.kick(&nd.ports[out])
		}
	}
	if fromTxRing {
		// TX-ring space freed: resume a stalled forwarding core
		// (no-op when not stalled or re-entered from forward itself).
		n.forward(nd)
	}
}

// scheduleKick arms p's retry timer for time at, replacing a pending later
// wake. p.kickAt is Never exactly when no timer is pending.
func (n *Network) scheduleKick(p *port, at units.Time) {
	if p.kickAt <= at {
		return
	}
	if p.kickAt != units.Never {
		n.eng.Cancel(p.kickEv)
	}
	p.kickAt = at
	p.kickEv = n.eng.At(at, n.kickFn, int32(p.cb))
}

// trySend asks channel ch's flow control whether a packet of size s may
// start now, with Sender.TrySend's contract: the wired scheme's rate limiter read in
// place when it is rate-gated (Network.limiters), its Sender otherwise.
func (n *Network) trySend(ch int, s units.Size) (bool, units.Time) {
	if n.limiters == nil {
		return n.senders[ch].TrySend(s)
	}
	return n.limiters[ch].Gate(n.eng.Now())
}

// forward runs the switch's forwarding core under SchedBlocking: serve
// ingress FIFO heads round-robin, moving each into its egress TX ring. When
// the selected head's ring is full, the whole forwarding path stalls until
// that ring drains — the behaviour of a software switch retrying a full TX
// ring, and the coupling that lets one paused port freeze a switch.
func (n *Network) forward(nd *node) {
	fi := int(nd.id)
	if n.forwarding[fi] {
		return
	}
	n.forwarding[fi] = true
	defer func() { n.forwarding[fi] = false }()
	for {
		if b := n.fwdBlocked[fi]; b != nil {
			// Still stalled: re-check the blocking ring.
			if n.voqs[b.voqBase].len() >= n.cfg.TxRing {
				return
			}
			n.fwdBlocked[fi] = nil
		}
		in := n.nextIngress(nd)
		if in < 0 {
			return
		}
		out := &nd.ports[n.inqOut[nd.cb+in]]
		if n.voqs[out.voqBase].len() >= n.cfg.TxRing {
			n.fwdBlocked[fi] = out // stall switch-wide
			return
		}
		head := n.popInq(nd, in)
		n.fwdCursor[fi] = int32(succ(in, len(nd.ports)))
		n.enqueue(out, head)
		n.kick(out)
	}
}

// nextIngress picks, round-robin from the forwarding cursor, the next of
// nd's non-empty ingress FIFOs; -1 when all are empty.
func (n *Network) nextIngress(nd *node) int {
	m := n.inBusy[nd.id]
	if m == 0 {
		return -1
	}
	return nextBit(m, int(n.fwdCursor[nd.id]))
}

// nextQueued scans p's backlogged physical queues round-robin (FlowQueues >
// 0) for a head packet the per-queue flow controller permits. A paused queue
// blocks only its own flows; the scan moves on to the next backlogged queue —
// the HoL-blocking elimination that is BFC's whole point. Returns the packet
// and its queue, or (nil, -1, wake) with the earliest retry time.
func (n *Network) nextQueued(p *port) (*Packet, int, units.Time) {
	ch := p.cb
	qs := n.queueSenders[ch]
	base := p.voqBase
	minWake := units.Never
	m := n.slotReady[ch]
	// Queues at or after the cursor first, then the ones before it.
	before := uint64(1)<<uint(n.rrVoq[ch]) - 1
	for _, part := range [2]uint64{m &^ before, m & before} {
		for ; part != 0; part &= part - 1 {
			slot := bits.TrailingZeros64(part)
			head := n.voqs[base+slot].front()
			ok, wake := qs.TrySendQueue(slot, head.Size)
			if !ok {
				if wake < minWake {
					minWake = wake
				}
				continue
			}
			return head, slot, 0
		}
	}
	return nil, -1, minWake
}

// Ready masks. Every round-robin pick in this file — an input for an egress
// (nextFromInputs), the next ingress FIFO for the forwarding core (forward),
// the next backlogged queue of an egress (nextPacket, nextQueued) — reads one
// uint64 whose bit i says "candidate i has a packet", and takes the first set
// bit at or after the cursor, wrapping: the order of the (cursor+j)%n walk it
// replaces, without visiting the empty candidates. Two pairs of helpers are
// the only writers: pushInq/popInq own inReady and inBusy (beside inqOut),
// enqueue/dequeue own slotReady.

// maxRadix is the widest node a mask word covers: candidates are a node's
// ports (or an egress's FlowQueues), one bit each. netsim.New refuses wider
// nodes under any discipline that picks by mask; it also keeps a port index
// inside inqOut's int16.
const maxRadix = 64

// nextBit returns the position of the first set bit of m at or after from,
// wrapping to the lowest set bit. m must be non-zero and from below maxRadix.
func nextBit(m uint64, from int) int {
	if hi := m >> uint(from); hi != 0 {
		return from + bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(m)
}

// succ is (i+1)%n for 0 <= i < n, without the divide.
func succ(i, n int) int {
	if i+1 >= n {
		return 0
	}
	return i + 1
}

// pushInq appends pkt to the ingress FIFO of nd's port in and reports whether
// it became the head.
func (n *Network) pushInq(nd *node, in int, pkt *Packet) bool {
	ch := nd.cb + in
	q := &n.inq[ch]
	q.push(pkt)
	if q.len() > 1 {
		return false
	}
	n.inBusy[nd.id] |= 1 << uint(in)
	n.publishHead(nd, in, pkt)
	return true
}

// popInq removes and returns the head of the ingress FIFO of nd's port in,
// publishing the new head.
func (n *Network) popInq(nd *node, in int) *Packet {
	ch := nd.cb + in
	q := &n.inq[ch]
	pkt := q.pop()
	n.inReady[nd.cb+int(n.inqOut[ch])] &^= 1 << uint(in)
	if q.empty() {
		n.inqOut[ch] = -1
		n.inBusy[nd.id] &^= 1 << uint(in)
	} else {
		n.publishHead(nd, in, q.front())
	}
	return pkt
}

// publishHead records head as the head of the ingress FIFO of nd's port in:
// its egress port in inqOut, and input in's bit in that egress's inReady word,
// so the egress finds its candidates without chasing head.Path[head.hop] per
// input.
func (n *Network) publishHead(nd *node, in int, head *Packet) {
	out := head.Path[head.hop].Port
	n.inqOut[nd.cb+in] = int16(out)
	n.inReady[nd.cb+out] |= 1 << uint(in)
}

// nextFromInputs picks, round-robin over the owner's ingress FIFOs, a head
// packet bound for egress p. Only FIFO heads are eligible (head-of-line
// blocking), and flow control gates the whole egress, so when it refuses the
// first candidate no other input can do better. Returns the packet and its
// input port index, or (nil, -1, wake) where wake is the retry time
// (units.Never to wait for feedback or traffic).
func (n *Network) nextFromInputs(p *port) (*Packet, int, units.Time) {
	ch := p.cb
	m := n.inReady[ch]
	if m == 0 {
		return nil, -1, units.Never
	}
	in := nextBit(m, int(n.rrVoq[ch]))
	head := n.inq[p.owner.cb+in].front()
	ok, wake := n.trySend(ch, head.Size)
	if !ok {
		return nil, -1, wake
	}
	return head, in, 0
}
