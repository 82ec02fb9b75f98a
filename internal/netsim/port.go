package netsim

import (
	"github.com/gfcsim/gfc/internal/eventsim"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Per-channel hot-path state does not live on the port: it lives in dense
// struct-of-arrays on the Network, indexed by the dense channel index port.cb
// (see Network's state block). The port keeps only identity, the precomputed
// index bases, and the per-port scalars (busy flag, in-flight transmission,
// retry timer). The index is the topology's channel numbering
// (topology.ChannelBases), which the metrics registry shares, so one index
// addresses a channel's occupancy, backlog, controllers, rate limiter and
// counters across every array — and names the channel in the events that
// concern it.

// port is one attachment point of a node: egress transmitter plus ingress
// buffer accounting for the attached channel. Ports live by value in one
// arena (Network.ports) and are 192 bytes — three cache lines, the first two
// of which hold everything an arrival, a transmission completion or a kick
// reads, so a Clos-scale event pays one or two lines per port it touches.
// TestPortLayout pins the split.
type port struct {
	// Line 0 — identity and the receiving side: what an arrival reads, and
	// what the peer's completeTx writes when it puts a packet on the wire.
	owner *node
	local int // port index on owner
	// cb is the channel index: this port's index in every per-channel
	// array (occupancy, queuedBytes, progress, limiters, rrVoq, inq, the
	// ready masks, the bank's) and in the Network.ports arena itself:
	// topology.ChannelBases()[owner] + local, which the metrics registry's
	// ChannelIndex also returns. A node's ports are consecutive, so the
	// channel of sibling port i is owner.cb + i without loading that port.
	cb         int
	buffer     units.Size // ingress allocation
	prop       pktQueue   // packets in flight *toward* this port, FIFO
	queuedPkts int        // packets in the egress queues; refill's depth check

	// Line 1 — the transmitter: what kick and completeTx read and write,
	// the retry timer included.
	busy bool
	// adminDown marks the attached link administratively down (fault
	// injection): the transmitter stops, feedback is lost, but unlike
	// failed the state is dynamic and the wired controllers stay in place
	// for the link's return.
	adminDown bool
	// failed caches link.Failed, which is fixed once a Network is built: a
	// failed link gets no controllers, so it could not carry traffic later.
	failed   bool
	sched    Scheduling
	txPkt    *Packet // with txDur: the single in-flight transmission (guarded by busy)
	txDur    units.Time
	peer     *port      // the port at the other end of link
	delay    units.Time // link.Delay
	capacity units.Rate
	// The wake-up timer retrying a flow-control-blocked egress.
	kickAt units.Time // when the pending kick timer fires; Never if none
	kickEv eventsim.Event

	// Cold: construction-time bases.
	link *topology.Link
	// voqBase and slots address Network.voqs: the egress queue for slot is
	// voqs[voqBase + slot]. slots is Network.egressSlots: the bank's
	// physical queues under a per-queue bank, the owner's port count under
	// SchedVOQ — one virtual output queue per input port — and 1 otherwise,
	// holding the mixed arrival-order queue; per-input byte accounting is
	// kept either way (Network.fedBytes, but for SchedInputQueued) for the
	// deadlock detector's FedBy edges.
	voqBase int
	slots   int
	// fedBase addresses Network.fedBytes: the per-input backlog of an
	// arrival key is fedBytes[fedBase + key].
	fedBase int

	_ [32]byte // pad to three whole cache lines, so arena ports never straddle one
}

// ingressProgress is one ingress buffer's forwarding-progress record: the
// lastDepart / occupiedSince timestamps — when the buffer last released a
// packet and when it last went from empty to occupied. Together they let the
// deadlock detector decide "no progress for a window" from one snapshot
// instead of keeping its own departure-delta maps.
type ingressProgress struct {
	lastDepart    units.Time
	occupiedSince units.Time
}

func (p *port) totalQueued() int { return p.queuedPkts }

// pushInFlight records a packet serialised onto the channel toward this
// port. Arrivals pop in push order: the upstream transmitter is serialised
// by its busy flag and the propagation delay is a per-link constant, so
// arrival times are strictly increasing.
func (p *port) pushInFlight(pkt *Packet) { p.prop.push(pkt) }

// popInFlight removes the oldest in-flight packet.
func (p *port) popInFlight() *Packet { return p.prop.pop() }

// arrivalKey is the per-input accounting slot of pkt at this node.
func arrivalKey(pkt *Packet) int {
	if pkt.arrivalPort < 0 {
		return 0 // host injection
	}
	return int(pkt.arrivalPort)
}

// flowAssign is one flow's current queue assignment on an egress channel:
// the physical queue it occupies and how many of its packets are queued
// there. The assignment is released when the count drains to zero, so a
// returning flow can land on whatever queue is emptiest by then — BFC's
// dynamic (not hashed) flow→queue mapping.
type flowAssign struct {
	slot int32
	pkts int32
}

// assignSlot picks the physical queue for pkt on egress channel p (under a
// per-queue bank, fq > 0): the flow's existing queue while it has packets
// there, otherwise the lowest-indexed empty queue, otherwise the queue with
// the fewest assigned flows (lowest index breaking ties). Deterministic by
// construction — no map iteration, only keyed lookups and index-order scans.
func (n *Network) assignSlot(p *port, pkt *Packet) int {
	m := n.qAssign[p.cb]
	if m == nil {
		m = make(map[int]flowAssign, n.fq)
		n.qAssign[p.cb] = m
	}
	id := pkt.Flow.ID
	if a, ok := m[id]; ok {
		a.pkts++
		m[id] = a
		return int(a.slot)
	}
	base := p.voqBase
	best, bestFlows := 0, n.slotFlows[base]
	for i := 0; i < p.slots && bestFlows > 0; i++ {
		if f := n.slotFlows[base+i]; f < bestFlows {
			best, bestFlows = i, f
		}
	}
	n.slotFlows[base+best]++
	m[id] = flowAssign{slot: int32(best), pkts: 1}
	return best
}

// releaseSlot decrements the dequeued packet's flow assignment, freeing the
// queue claim once its last queued packet leaves.
func (n *Network) releaseSlot(p *port, pkt *Packet) {
	m := n.qAssign[p.cb]
	id := pkt.Flow.ID
	a := m[id]
	a.pkts--
	if a.pkts <= 0 {
		delete(m, id)
		n.slotFlows[p.voqBase+int(a.slot)]--
		return
	}
	m[id] = a
}

// enqueue appends pkt to p's egress.
func (n *Network) enqueue(p *port, pkt *Packet) {
	key := arrivalKey(pkt)
	slot := key
	if p.sched != SchedVOQ {
		slot = 0 // FIFO / TX-ring order for every other discipline
	}
	if n.fq > 0 {
		slot = n.assignSlot(p, pkt)
		pkt.queue = int8(slot)
	}
	n.voqs[p.voqBase+slot].push(pkt)
	n.slotReady[p.cb] |= 1 << uint(slot)
	if n.fedBytes != nil {
		n.fedBytes[p.fedBase+key] += pkt.Size()
	}
	n.queuedBytes[p.cb] += pkt.Size()
	p.queuedPkts++
}

// dequeue removes the head of p's queue slot and advances the round-robin
// cursor.
func (n *Network) dequeue(p *port, slot int) *Packet {
	q := &n.voqs[p.voqBase+slot]
	pkt := q.pop()
	if q.empty() {
		n.slotReady[p.cb] &^= 1 << uint(slot)
	}
	if n.fedBytes != nil {
		n.fedBytes[p.fedBase+arrivalKey(pkt)] -= pkt.Size()
	}
	n.queuedBytes[p.cb] -= pkt.Size()
	p.queuedPkts--
	n.rrVoq[p.cb] = int32(succ(slot, p.slots))
	if n.fq > 0 {
		n.releaseSlot(p, pkt)
	}
	return pkt
}

// node is a host or switch instance.
type node struct {
	id   topology.NodeID
	kind topology.Kind
	// ports is the node's run of the Network.ports arena, by value: port i
	// is &ports[i], one address computation and no pointer table.
	ports []port
	// cb is ports[0].cb, the node's channel base.
	cb int

	// Switch state. inBusy bit i says ingress FIFO i is non-empty
	// (pushInq/popInq); the rest is the SchedBlocking forwarding core's.
	inBusy     uint64
	fwdCursor  int32
	forwarding bool  // re-entrancy guard
	fwdBlocked *port // egress whose full TX ring stalls forwarding

	// Host state. flows lists the started flows with bytes left to release,
	// in start order; a flow leaves it with its last byte (see nextFlow for
	// the round-robin cursor rrFlow and newest, the last flow started).
	flows    []*Flow
	rrFlow   int
	newest   *Flow
	refillAt units.Time
	refillEv eventsim.Event
}
