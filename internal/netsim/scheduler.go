package netsim

import (
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// This file is the egress scheduling and host injection machinery: which
// packet a transmitter picks next (kick, prioOrder, nextFromInputs), the
// SchedBlocking forwarding core (forward), and the host NIC refill path
// (refill, nextFlow).
//
// Both retry timers — kick and refill — use the pre-bound callbacks wired
// at construction. Scheduling an earlier wake cancels the pending later
// event instead of piling up guarded no-op events: with generation-counted
// cancellation in eventsim this is O(log n) and allocation-free. Dropping a
// superseded timer never loses a wake-up, because every blocked kick or
// refill re-derives and re-schedules its own next wake.

// refill keeps the host NIC queue at the configured depth, drawing packets
// from active flows round-robin and honouring per-flow pacers.
func (n *Network) refill(h *node) {
	if h.kind != topology.Host || len(h.ports) == 0 {
		return
	}
	p := h.ports[0]
	now := n.eng.Now()
	for p.totalQueued() < n.cfg.HostQueueDepth {
		f, wake := n.nextFlow(h, now)
		if f == nil {
			if wake != units.Never && wake > now {
				n.scheduleRefill(h, wake)
			}
			return
		}
		size := f.remaining(n.cfg.MTU)
		if size > n.cfg.MTU {
			size = n.cfg.MTU
		}
		if f.Pacer != nil {
			f.Pacer.OnRelease(now, size)
		}
		if h.burstBytes > 0 {
			if size >= h.burstBytes {
				h.burstBytes = 0
			} else {
				h.burstBytes -= size
			}
		}
		f.released += size
		pkt := n.newPacket()
		pkt.Flow, pkt.Seq, pkt.Size, pkt.Priority = f, f.seq, size, f.Priority
		pkt.Path = f.Path
		pkt.arrivalPort = -1
		f.seq++
		if f.Size > 0 && f.released >= f.Size {
			pkt.Last = true
			f.active = false
		}
		n.enqueue(p, pkt)
	}
	n.kick(p)
}

// nextFlow picks the next eligible flow on h (round-robin); when none is
// eligible it returns the earliest pacer wake time.
func (n *Network) nextFlow(h *node, now units.Time) (*Flow, units.Time) {
	wake := units.Never
	for i := 0; i < len(h.flows); i++ {
		f := h.flows[(h.rrFlow+i)%len(h.flows)]
		if !f.active || f.remaining(n.cfg.MTU) == 0 {
			continue
		}
		// A fault-injected burst budget bypasses pacing: the host floods
		// at NIC speed until the budget drains.
		if f.Pacer != nil && h.burstBytes == 0 {
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
		h.rrFlow = (h.rrFlow + i + 1) % len(h.flows)
		return f, 0
	}
	return nil, wake
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
	h.refillEv = n.eng.Schedule(at, h.refillFn)
}

// kick tries to start a transmission on p. When flow control blocks every
// queued priority, it schedules a retry at the earliest wake time (feedback
// events also re-kick).
func (n *Network) kick(p *port) {
	if p.busy || p.adminDown || p.link.Failed {
		return
	}
	now := n.eng.Now()
	minWake := units.Never
	inputQueued := p.sched == SchedInputQueued && p.owner.kind == topology.Switch
	k := n.cfg.Priorities
	for _, prio := range n.prioOrder(p) {
		var pkt *Packet
		var freed *port // input whose FIFO head we consumed
		if inputQueued {
			head, in, wake := n.nextFromInputs(p, prio)
			if head == nil {
				if wake < minWake {
					minWake = wake
				}
				continue
			}
			n.popInq(in.cb + prio)
			n.rrVoq[p.cb+prio] = int32((in.local + 1) % len(p.owner.ports))
			pkt, freed = head, in
		} else if n.fq > 0 {
			head, slot, wake := n.nextQueued(p, prio)
			if head == nil {
				if wake < minWake {
					minWake = wake
				}
				continue
			}
			pkt = n.dequeue(p, prio, slot)
		} else {
			head, slot := n.nextPacket(p, prio)
			if head == nil {
				continue
			}
			ok, wake := n.senders[p.cb+prio].TrySend(head.Size)
			if !ok {
				if wake < minWake {
					minWake = wake
				}
				continue
			}
			pkt = n.dequeue(p, prio, slot)
			if p.sched == SchedBlocking && p.owner.kind == topology.Switch {
				// TX-ring space freed: resume a stalled
				// forwarding core (no-op when not stalled or
				// re-entered from forward itself).
				defer n.forward(p.owner, prio)
			}
		}
		p.rr = (prio + 1) % k
		if p.wrrCredit != nil && p.wrrCredit[prio] > 0 {
			p.wrrCredit[prio]--
		}
		p.busy = true
		dur := units.TransmissionTime(pkt.Size, p.capacity)
		p.txPkt, p.txPrio, p.txDur = pkt, prio, dur
		n.eng.After(dur, p.txDoneFn)
		if freed != nil {
			// The freed input's new head may target an idle egress.
			if out := n.inqOut[freed.cb+prio]; out >= 0 {
				n.kick(p.owner.ports[out])
			}
		}
		return
	}
	if minWake != units.Never && minWake > now {
		n.scheduleKick(p, minWake)
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
	p.kickEv = n.eng.Schedule(at, p.kickFn)
}

// forward runs the switch's forwarding core for one priority under
// SchedBlocking: serve ingress FIFO heads round-robin, moving each into its
// egress TX ring. When the selected head's ring is full, the whole
// forwarding path for this priority stalls until that ring drains — the
// behaviour of a software switch retrying a full TX ring, and the coupling
// that lets one paused port freeze a switch.
func (n *Network) forward(nd *node, prio int) {
	fi := nd.nb + prio
	if n.forwarding[fi] {
		return
	}
	n.forwarding[fi] = true
	defer func() { n.forwarding[fi] = false }()
	for {
		if b := n.fwdBlocked[fi]; b != nil {
			// Still stalled: re-check the blocking ring.
			if n.voqs[b.voqBase+prio*b.slots].q.len() >= n.cfg.TxRing {
				return
			}
			n.fwdBlocked[fi] = nil
		}
		var in *port
		for j := 0; j < len(nd.ports); j++ {
			c := nd.ports[(int(n.fwdCursor[fi])+j)%len(nd.ports)]
			if !n.inq[c.cb+prio].empty() {
				in = c
				break
			}
		}
		if in == nil {
			return
		}
		head := n.inq[in.cb+prio].front()
		out := nd.ports[head.Path[head.hop].Port]
		if n.voqs[out.voqBase+prio*out.slots].q.len() >= n.cfg.TxRing {
			n.fwdBlocked[fi] = out // stall switch-wide
			return
		}
		n.popInq(in.cb + prio)
		n.fwdCursor[fi] = int32((in.local + 1) % len(nd.ports))
		n.enqueue(out, head)
		n.kick(out)
	}
}

// prioOrder returns the order in which p's priorities are offered the
// wire. Without configured weights it is plain round-robin from the cursor.
// With weights it is packet-based weighted round-robin with a
// work-conserving second phase: classes holding WRR credit are offered
// first (cheapest classes refilled when all credits drain), then the rest,
// so a weighted class can never be starved but spare capacity is never
// wasted. The returned slice is p's reusable scratch buffer: valid until
// the next prioOrder call for p, which is safe because kick finishes with
// the order before any nested kick can touch a *different* port's scratch,
// and a nested kick of p itself bails on the busy flag first.
func (n *Network) prioOrder(p *port) []int {
	k := n.cfg.Priorities
	if k == 1 {
		return oneZero
	}
	order := p.prioScratch[:0]
	if n.cfg.PriorityWeights == nil {
		for i := 0; i < k; i++ {
			order = append(order, (p.rr+i)%k)
		}
		return order
	}
	if p.wrrCredit == nil {
		p.wrrCredit = make([]int, k)
	}
	total := 0
	for _, c := range p.wrrCredit {
		total += c
	}
	if total == 0 {
		copy(p.wrrCredit, n.cfg.PriorityWeights)
	}
	for i := 0; i < k; i++ {
		if pr := (p.rr + i) % k; p.wrrCredit[pr] > 0 {
			order = append(order, pr)
		}
	}
	for i := 0; i < k; i++ {
		if pr := (p.rr + i) % k; p.wrrCredit[pr] == 0 {
			order = append(order, pr)
		}
	}
	return order
}

// oneZero avoids allocating for the ubiquitous single-priority case.
var oneZero = []int{0}

// nextQueued scans p's physical queues round-robin (FlowQueues > 0) for a
// head packet the per-queue flow controller permits. A paused queue blocks
// only its own flows; the scan moves on to the next backlogged queue — the
// HoL-blocking elimination that is BFC's whole point. Returns the packet and
// its queue, or (nil, -1, wake) with the earliest retry time.
func (n *Network) nextQueued(p *port, prio int) (*Packet, int, units.Time) {
	qs := n.queueSenders[p.cb+prio]
	base := p.voqBase + prio*p.slots
	minWake := units.Never
	for i := 0; i < p.slots; i++ {
		k := (int(n.rrVoq[p.cb+prio]) + i) % p.slots
		v := &n.voqs[base+k]
		if v.q.empty() {
			continue
		}
		head := v.q.front()
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

// pushInq appends pkt to ingress FIFO ch and reports whether it became the
// head. inqOut[ch] caches the head's egress port so nextFromInputs compares
// one dense int16 per input instead of chasing head.Path[head.hop].
func (n *Network) pushInq(ch int, pkt *Packet) bool {
	q := &n.inq[ch]
	q.push(pkt)
	if q.len() > 1 {
		return false
	}
	n.inqOut[ch] = int16(pkt.Path[pkt.hop].Port)
	return true
}

// popInq removes and returns the head of ingress FIFO ch, publishing the new
// head's egress port.
func (n *Network) popInq(ch int) *Packet {
	q := &n.inq[ch]
	pkt := q.pop()
	n.inqOut[ch] = -1
	if !q.empty() {
		head := q.front()
		n.inqOut[ch] = int16(head.Path[head.hop].Port)
	}
	return pkt
}

// nextFromInputs scans the owner's ingress FIFOs round-robin for a head
// packet bound for egress p at the given priority that flow control permits.
// It returns the packet and its input port, or (nil, nil, wake) where wake
// is the earliest retry time (units.Never to wait for feedback).
func (n *Network) nextFromInputs(p *port, prio int) (*Packet, *port, units.Time) {
	ports := p.owner.ports
	minWake := units.Never
	for j := 0; j < len(ports); j++ {
		in := ports[(int(n.rrVoq[p.cb+prio])+j)%len(ports)]
		if int(n.inqOut[in.cb+prio]) != p.local {
			continue // empty, or head-of-line: only the head is eligible
		}
		head := n.inq[in.cb+prio].front()
		ok, wake := n.senders[p.cb+prio].TrySend(head.Size)
		if !ok {
			// Flow control gates the whole egress for this
			// priority; no other input can do better.
			return nil, nil, wake
		}
		return head, in, 0
	}
	return nil, nil, minWake
}
