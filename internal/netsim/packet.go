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
	"sync"

	"github.com/gfcsim/gfc/internal/units"
)

// Packet is one frame traversing the fabric. Packets are source-routed by
// their flow: Flow.Path[hop].Node holds the packet (next to transmit it), the
// per-flow ECMP decision the routing table made once. A packet carries only
// the hop index, not the route, and each field is as narrow as its bound, so a
// live packet is 32 bytes (TestPacketLayout).
type Packet struct {
	Flow *Flow
	// next links the packet into the one pktQueue holding it, or, once
	// recycled, into the network's free list.
	next *Packet
	// Seq numbers the flow's packets from 0 as its host NIC releases them;
	// only determinism hashes read it. It wraps after 2^32 packets of one
	// flow.
	Seq  uint32
	size int32 // bytes; Config.validate bounds the MTU to what it holds

	hop int16 // index into Flow.Path of the node holding the packet (AddFlow bounds the path)

	// Ingress accounting at the current switch: which local port the
	// packet arrived on. -1 at the source host. A node has at most
	// math.MaxInt16 ports (New).
	arrivalPort int16

	// Per-flow queue accounting (a per-queue bank, at most 64 queues, which
	// New enforces): queue is the physical queue the packet is assigned to
	// at its current egress, and arrivalQueue freezes the assignment it
	// arrived downstream with — the queue the ingress receiver is told
	// about on admission and departure. Both stay 0 under a channel-scoped
	// bank, and are recycled to zero with the packet.
	queue        int8
	arrivalQueue int8

	// ECN is set when the packet passed a switch whose egress queue
	// exceeded the marking threshold (used by DCQCN).
	ECN bool
}

// Size is the packet's length on the wire.
func (p *Packet) Size() units.Size { return units.Size(p.size) }

// pktChunk is how many packets a Network's arena grows by at a time. The
// live-packet population is bounded by queue depths, so a run costs a few
// chunk allocations total rather than one per packet.
const pktChunk = 63

// pktBlock is one arena chunk and the link to the chunk carved before it:
// 63 packets and a pointer fill a 2 KiB size class, and the network records
// its chunks without a slice to grow.
type pktBlock struct {
	pkts [pktChunk]Packet
	prev *pktBlock
}

// pktBlocks holds the zeroed chunks of closed networks (Network.Close) for
// the next network to carve from, so a sweep that closes each run reuses one
// run's packet storage in the next. Only zeroed storage crosses between
// networks: no packet state, flow pointer or recycling order does.
var pktBlocks sync.Pool

// newPacket returns a zeroed packet from the network's free list, or carves
// one from the arena when the list is empty, taking the next chunk from a
// closed network before allocating one. The free list is per-network and
// lives as long as the network — the collector never drains it — so a run's
// steady state is allocation-free regardless of collector timing, and
// recycling order (LIFO) is deterministic by construction.
func (n *Network) newPacket() *Packet {
	if pkt := n.freeHead; pkt != nil {
		n.freeHead = pkt.next
		pkt.next = nil
		return pkt
	}
	if n.blocks == nil || n.carved == pktChunk {
		b, _ := pktBlocks.Get().(*pktBlock)
		if b == nil {
			b = new(pktBlock)
		}
		b.prev, n.blocks, n.carved = n.blocks, b, 0
	}
	pkt := &n.blocks.pkts[n.carved]
	n.carved++
	return pkt
}

// recyclePacket returns a packet whose journey ended (delivered or dropped)
// to the free list, linked through its next field: a recycled packet sits in
// no queue. Callers must not hold references past this point; trace hooks
// have already fired.
func (n *Network) recyclePacket(pkt *Packet) {
	*pkt = Packet{next: n.freeHead}
	n.freeHead = pkt
}

// Close ends the network's life: it zeroes every arena chunk the network
// carved its packets from and hands them to the next network built in this
// process. Call it once a run's results have been read. The packets the
// network still held are gone, so a closed network refuses to run or to take
// a flow: Run, RunBounded and AddFlow panic with "netsim: network closed".
// Its readers (Now, Drops, TotalDelivered, Flows, AppendIngressStates,
// Snapshot) keep answering, since none reads a packet; its engine must not
// run again. A second Close is a no-op.
func (n *Network) Close() {
	if n.closed {
		return
	}
	n.closed = true
	for b := n.blocks; b != nil; {
		prev := b.prev
		*b = pktBlock{}
		pktBlocks.Put(b)
		b = prev
	}
	n.blocks, n.carved, n.freeHead = nil, 0, nil
}

// mustBeOpen panics when the network has been closed.
func (n *Network) mustBeOpen() {
	if n.closed {
		panic("netsim: network closed")
	}
}
