package netsim

import (
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Trace carries optional observation hooks. Every field may be nil. Hooks
// fire synchronously inside the simulation loop; they must not mutate the
// network. A *Packet passed to a hook is only valid for the duration of the
// callback: delivered and dropped packets return to a free list afterwards,
// so hooks must copy the fields they need rather than retain the pointer.
type Trace struct {
	// OnQueue fires after an ingress queue changes: node, local port, new
	// occupancy.
	OnQueue func(t units.Time, node topology.NodeID, port int, q units.Size)
	// OnArrival fires when a packet is fully received at a node (switch
	// admission or host delivery).
	OnArrival func(t units.Time, node topology.NodeID, pkt *Packet)
	// OnDeliver fires when the destination host receives a packet.
	OnDeliver func(t units.Time, f *Flow, pkt *Packet)
	// OnFeedback fires when the receiver of an ingress channel — node,
	// local port, as OnQueue names it — sends a flow-control message back
	// to its sender. Every frame is flowcontrol.MessageSize on the wire
	// (the Figure 19 overhead accounting).
	OnFeedback func(t units.Time, node topology.NodeID, port int)
}

func (tr *Trace) queue(t units.Time, n topology.NodeID, port int, q units.Size) {
	if tr != nil && tr.OnQueue != nil {
		tr.OnQueue(t, n, port, q)
	}
}

func (tr *Trace) arrival(t units.Time, n topology.NodeID, pkt *Packet) {
	if tr != nil && tr.OnArrival != nil {
		tr.OnArrival(t, n, pkt)
	}
}

func (tr *Trace) deliver(t units.Time, f *Flow, pkt *Packet) {
	if tr != nil && tr.OnDeliver != nil {
		tr.OnDeliver(t, f, pkt)
	}
}

func (tr *Trace) feedback(t units.Time, n topology.NodeID, port int) {
	if tr != nil && tr.OnFeedback != nil {
		tr.OnFeedback(t, n, port)
	}
}
