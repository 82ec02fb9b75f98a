package netsim

import (
	"slices"

	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// IngressState is a snapshot of one ingress buffer — the vertex the
// deadlock detector's wait-for graph is built on, matching the CBD
// formalism: an ingress buffer waits on the downstream buffers its queued
// packets must enter next.
type IngressState struct {
	Ch int // the buffer's channel (topology.ChannelBases numbering)

	// Occupancy is the current buffer occupancy.
	Occupancy units.Size
	// LastDepartAt is when the buffer last released a packet (zero if
	// never), and OccupiedSince when it last went from empty to occupied.
	// max(LastDepartAt, OccupiedSince) is the start of the buffer's
	// current no-progress interval — what the deadlock detector windows
	// on, replacing per-poll departure deltas.
	LastDepartAt  units.Time
	OccupiedSince units.Time
	// Waits lists the egress channels this buffer's traffic must take next:
	// under input-queued switching, the head packet's (only the head can
	// move); under output-queued disciplines, every one with backlog from
	// this ingress. Empty for an empty buffer.
	Waits []Wait
}

// Wait is one egress channel an ingress buffer waits on.
type Wait struct {
	Ch int // the downstream ingress channel the egress feeds
	// Rate is the channel's flow-control permitted rate. A stalled buffer
	// whose every wait rate is zero is blocked indefinitely (PFC pause,
	// CBFC credit starvation); a positive rate means the buffer still
	// trickles — GFC's hold-and-wait elimination in action.
	Rate units.Rate
	// Down reports that the egress is administratively down. Such a wait
	// is a transient outage, not hold-and-wait: the deadlock detector must
	// not count it toward a circular-wait verdict (a flapped link would
	// otherwise read as a ring deadlock).
	Down bool
}

// AppendIngressStates appends a snapshot of every switch ingress buffer,
// ordered (node, port), to dst and returns it. dst grows at most once, to
// room for the whole snapshot, and a state written into its spare capacity
// reuses the Waits array of the element it replaces, so passing the previous
// snapshot as dst[:0] polls without allocating.
func (n *Network) AppendIngressStates(dst []IngressState) []IngressState {
	dst = slices.Grow(dst, n.ingresses)
	for _, nd := range n.nodes {
		if nd.kind != topology.Switch {
			continue
		}
		for i := range nd.ports {
			p := &nd.ports[i]
			if p.failed {
				continue
			}
			ch := p.cb
			dst = dst[:len(dst)+1]
			is := &dst[len(dst)-1]
			*is = IngressState{
				Ch:            ch,
				Occupancy:     n.occupancy[ch],
				LastDepartAt:  n.progress[ch].lastDepart,
				OccupiedSince: n.progress[ch].occupiedSince,
				Waits:         is.Waits[:0],
			}
			if is.Occupancy == 0 {
				continue
			}
			addWait := func(eg *port) {
				is.Waits = append(is.Waits, Wait{eg.peer.cb, n.egressRate(eg), eg.adminDown})
			}
			switch n.cfg.Scheduling {
			case SchedInputQueued:
				if out := n.inqOut[ch]; out >= 0 {
					addWait(&nd.ports[out])
				}
			case SchedBlocking:
				// Backlog already in TX rings waits on those
				// rings' peers; packets still in the ingress
				// FIFO wait on whatever the forwarding core is
				// stalled on (or on their own head's egress).
				for e := range nd.ports {
					if eg := &nd.ports[e]; n.fedBytes[eg.fedBase+p.local] > 0 {
						addWait(eg)
					}
				}
				if out := n.inqOut[ch]; out >= 0 {
					if b := nd.fwdBlocked; b != nil {
						addWait(b)
					} else {
						addWait(&nd.ports[out])
					}
				}
			default:
				for e := range nd.ports {
					if eg := &nd.ports[e]; n.fedBytes[eg.fedBase+p.local] > 0 {
						addWait(eg)
					}
				}
			}
		}
	}
	return dst
}

// egressRate reports the effective flow-control permitted rate of egress
// channel p (0 on a failed link). For channel-scoped schemes this is the
// bank's Rate. Under a per-queue bank (fq > 0) the channel-level Rate stays
// at capacity while any queue is unpaused, which would hide a stall whose
// entire backlog sits in paused queues — so here the backlogged queues are
// probed, as kick would: any sendable backlog means line rate, all-paused
// backlog means 0, and an idle channel falls back to Rate.
func (n *Network) egressRate(p *port) units.Rate {
	if n.fq > 0 && !p.failed && n.slotReady[p.cb] != 0 {
		if slot, _ := n.nextQueued(p); slot >= 0 {
			return p.capacity
		}
		return 0
	}
	return n.fc.Rate(p.cb)
}

// TotalDelivered reports the sum of bytes delivered across all flows.
func (n *Network) TotalDelivered() units.Size { return n.delivered }
