package netsim

import (
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// This file actuates the fault-injection timeline (internal/faults): the
// scheduled half of the fault model. The probabilistic half — per-message
// feedback verdicts — lives inline in emit. Faults never bypass the
// normal machinery: a down link is a transmitter that refuses to start
// (kick's adminDown guard), a degraded link is a smaller capacity — so
// everything downstream (flow control, metrics, the deadlock detector)
// observes faults exactly as it would observe the real events.

// applyFault actuates one compiled timeline event and records it.
func (n *Network) applyFault(ev faults.Event) {
	switch ev.Kind {
	case faults.LinkDown, faults.LinkUp:
		n.SetLinkAdminState(ev.Link, ev.Kind == faults.LinkDown)
	case faults.RateScale:
		n.scaleLinkRate(ev.Link, ev.Factor)
	}
	n.recordFault(metrics.FaultEvent{
		Kind: ev.Kind, At: n.eng.Now(), Link: ev.Link, Factor: ev.Factor,
	}, -1, n.topo.Link(ev.Link).A)
}

// recordFault hands one injected fault to the registry: on channel ch, or
// (ch < 0) a link-level fault seen from node.
func (n *Network) recordFault(ev metrics.FaultEvent, ch int, node topology.NodeID) {
	if reg := n.metrics; reg != nil {
		reg.OnFault(ev, ch, node)
	}
}

// linkPorts returns the two port instances attached to link id.
func (n *Network) linkPorts(id topology.LinkID) (*port, *port) {
	l := n.topo.Link(id)
	return &n.nodes[l.A].ports[l.PortA], &n.nodes[l.B].ports[l.PortB]
}

// SetLinkAdminState takes the link administratively down or up. Down: both
// transmitters stop after their in-flight packet (an administrative drain,
// not a packet loss — the fabric stays lossless), feedback crossing the
// link is destroyed, queued traffic holds. Up: both transmitters restart.
//
// Coming up also restarts the stall clock of every occupied switch ingress
// buffer in the network: the wait-for graph those windows were measured
// under included an outage, so a deadlock verdict may only accumulate from
// the repaired topology onward (the detector excludes buffers actively
// waiting on a down link, but buffers further upstream window on
// LastDepartAt/OccupiedSince and would otherwise carry outage time into a
// false verdict).
func (n *Network) SetLinkAdminState(id topology.LinkID, down bool) {
	pa, pb := n.linkPorts(id)
	pa.adminDown, pb.adminDown = down, down
	if down {
		return
	}
	now := n.eng.Now()
	for _, nd := range n.nodes {
		if nd.kind != topology.Switch {
			continue
		}
		for ch := nd.cb; ch < nd.cb+len(nd.ports); ch++ {
			if n.occupancy[ch] > 0 {
				n.progress[ch].occupiedSince = now
			}
		}
	}
	n.kick(pa)
	n.kick(pb)
	// A host behind the restored link may have withheld injection.
	for _, nd := range []*node{pa.owner, pb.owner} {
		if nd.kind == topology.Host {
			n.refill(nd)
		}
	}
}

// scaleLinkRate runs both directions of the link at factor × the nominal
// capacity. An in-flight transmission finishes at the old rate; the next
// one serialises at the new. Flow controllers keep their construction-time
// parameters — a degraded link looks to them like mysteriously slow
// drains, exactly as an autoneg downshift does in a real fabric.
func (n *Network) scaleLinkRate(id topology.LinkID, factor float64) {
	pa, pb := n.linkPorts(id)
	nominal := n.topo.Link(id).Capacity
	scaled := units.Rate(float64(nominal) * factor)
	if scaled <= 0 {
		scaled = 1 // a zero rate would make TransmissionTime divide by zero
	}
	pa.capacity, pb.capacity = scaled, scaled
}
