// Package netsim is the packet-level discrete-event simulator of a lossless
// switching fabric. It models input-buffered switches with per-port
// ingress accounting, egress schedulers gated by pluggable hop-by-hop flow
// control (package flowcontrol), links with serialization and propagation
// delay, and hosts that source and sink flows.
//
// The simulator substitutes for the paper's DPDK testbed and OMNET++
// simulator; §6.2.1 of the paper validates that this class of model
// reproduces the testbed's flow-control dynamics. Losslessness is an
// invariant: any packet drop is recorded and experiments treat it as a
// failure.
package netsim

import (
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/units"
)

// Packet is one frame traversing the fabric. Packets are source-routed: the
// full path is stamped at the sending host, mirroring the deterministic
// per-flow ECMP decision the routing table makes.
type Packet struct {
	Flow *Flow
	Seq  int64
	Size units.Size
	// Path and hop index: Path[hop] is the node currently holding the
	// packet (next to transmit it).
	Path []routing.Hop
	hop  int

	// Ingress accounting at the current switch: which local port the
	// packet arrived on. -1 at the source host.
	arrivalPort int

	// Per-flow queue accounting (Config.FlowQueues > 0): queue is the
	// physical queue the packet is assigned to at its current egress, and
	// arrivalQueue freezes the assignment it arrived downstream with — the
	// queue id the ingress BFC receiver is told about on admission and
	// departure. Both are recycled to zero with the packet.
	queue        int32
	arrivalQueue int32

	// ECN is set when the packet passed a switch whose egress queue
	// exceeded the marking threshold (used by DCQCN).
	ECN bool

	next *Packet // link of the one pktQueue holding the packet, if any
}

// pktChunk is how many packets a Network's arena grows by at a time. The
// live-packet population is bounded by queue depths, so a run costs a few
// chunk allocations total rather than one per packet.
const pktChunk = 64

// newPacket returns a zeroed packet from the network's free list. The list
// is per-network — unlike the former shared sync.Pool it never drains on
// GC, so the steady state is allocation-free regardless of collector
// timing, and recycling order is deterministic by construction.
func (n *Network) newPacket() *Packet {
	if l := len(n.freePkts); l > 0 {
		pkt := n.freePkts[l-1]
		n.freePkts = n.freePkts[:l-1]
		return pkt
	}
	if len(n.pktArena) == 0 {
		n.pktArena = make([]Packet, pktChunk)
	}
	pkt := &n.pktArena[0]
	n.pktArena = n.pktArena[1:]
	return pkt
}

// recyclePacket returns a packet whose journey ended (delivered or dropped)
// to the free list. Callers must not hold references past this point; trace
// hooks have already fired.
func (n *Network) recyclePacket(pkt *Packet) {
	*pkt = Packet{}
	n.freePkts = append(n.freePkts, pkt)
}
