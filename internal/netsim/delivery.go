package netsim

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/topology"
)

// This file is the wire half of the simulator: transmission completion at
// the sending port and admission at the receiving node. Both are events of
// the Network's handlers for their kind, naming the channel — the in-flight
// transmission lives in the port's txPkt/txDur slots (a port serialises
// transmissions via busy), and packets propagating on a channel sit in the
// receiving port's FIFO, popped in order because a link's arrivals cannot
// overtake one another. Every arrival is its own event: scheduled After the
// link's constant delay it waits in one of the engine's FIFO lanes, where a
// pop is a ring-buffer step and there is nothing left for batching to save.

// completeTx finishes the port's in-flight transmission: notifies flow
// control, releases ingress accounting at the transmitting switch,
// propagates the packet and restarts the transmitter.
func (n *Network) completeTx(p *port) {
	pkt, dur := p.txPkt, p.txDur
	p.txPkt = nil
	now := n.eng.Now()
	p.busy = false
	if n.limiters != nil {
		n.limiters[p.cb].OnPacket(now, dur, pkt.Size())
	} else {
		n.fc.OnSent(p.cb, pkt.Size(), dur)
	}
	nd := p.owner

	switch nd.kind {
	case topology.Switch:
		// The packet leaves this switch: release the ingress buffer
		// of the port it arrived on.
		in := int(pkt.arrivalPort)
		ch := nd.cb + in
		n.occupancy[ch] -= pkt.Size()
		n.progress[ch].lastDepart = now
		n.cfg.Trace.queue(now, nd.id, in, n.occupancy[ch])
		if reg := n.metrics; reg != nil {
			reg.OnRelease(ch, now, pkt.Size(), n.occupancy[ch])
		}
		n.fc.OnDeparture(ch, int(pkt.arrivalQueue), pkt.Size(), n.occupancy[ch])
	case topology.Host:
		n.refill(nd)
	}

	rp := p.peer
	if reg := n.metrics; reg != nil {
		reg.OnTx(rp.cb, pkt.Size())
	}
	rp.pushInFlight(pkt)
	n.eng.After(p.delay, n.arriveFn, int32(rp.cb))
	n.kick(p)
}

// arrive admits a fully received packet at the node owning ingress port ing.
func (n *Network) arrive(ing *port, pkt *Packet) {
	nd, idx := ing.owner, ing.local
	now := n.eng.Now()
	n.cfg.Trace.arrival(now, nd.id, pkt)

	if nd.kind == topology.Host {
		f := pkt.Flow
		f.Delivered += pkt.Size()
		n.delivered += pkt.Size()
		if reg := n.metrics; reg != nil {
			// Hosts consume on arrival; account the delivery with a
			// permanently empty ingress.
			reg.OnAdmit(ing.cb, now, pkt.Size(), 0)
		}
		n.cfg.Trace.deliver(now, f, pkt)
		if f.Done() && f.Finished == 0 {
			f.Finished = now
			if f.OnDone != nil {
				f.OnDone(f)
			}
		}
		n.recyclePacket(pkt)
		return
	}

	ch := ing.cb
	occ := n.occupancy[ch] + pkt.Size()
	if occ > ing.buffer {
		// A lossless fabric must never get here; record and drop.
		n.drops++
		if reg := n.metrics; reg != nil {
			reg.OnDrop(ch, now, pkt.Size(), occ)
		}
		n.recyclePacket(pkt)
		return
	}
	if n.occupancy[ch] == 0 {
		n.progress[ch].occupiedSince = now
	}
	n.occupancy[ch] = occ
	n.cfg.Trace.queue(now, nd.id, idx, occ)
	if reg := n.metrics; reg != nil {
		reg.OnAdmit(ch, now, pkt.Size(), occ)
	}
	// Freeze the upstream queue assignment: this is the physical queue the
	// packet occupies at this ingress until it departs, regardless of which
	// queue the next hop assigns it (0 under a channel-scoped bank).
	pkt.arrivalQueue = pkt.queue
	n.fc.OnArrival(ch, int(pkt.arrivalQueue), pkt.Size(), occ)
	pkt.arrivalPort = int16(idx)
	pkt.hop++
	hop := pkt.Flow.Path[pkt.hop]
	if hop.Node != nd.id {
		panic(fmt.Sprintf("netsim: packet path desync: at node %d, path says %d (t=%v event=%d)",
			nd.id, hop.Node, now, n.eng.Fired()))
	}
	out := &nd.ports[hop.Port]
	switch n.cfg.Scheduling {
	case SchedInputQueued:
		// Input-queued switching: the packet waits in the ingress
		// FIFO; congestion shows as ingress occupancy.
		if n.cfg.ECNThreshold > 0 && occ >= n.cfg.ECNThreshold {
			pkt.ECN = true
		}
		if n.pushInq(nd, idx, pkt) {
			n.kick(out)
		}
		return
	case SchedBlocking:
		// The packet joins the ingress FIFO; the forwarding core
		// moves it to a TX ring when its turn comes.
		if n.cfg.ECNThreshold > 0 && occ >= n.cfg.ECNThreshold {
			pkt.ECN = true
		}
		n.pushInq(nd, idx, pkt)
		n.forward(nd)
		return
	}
	if n.cfg.ECNThreshold > 0 && n.queuedBytes[out.cb] >= n.cfg.ECNThreshold {
		pkt.ECN = true
	}
	n.enqueue(out, pkt)
	n.kick(out)
}
