// Package deadlock detects network deadlock in a running simulation. A
// deadlock is a set of ingress buffers that (a) hold traffic, (b) have made
// no forwarding progress for a sustained window, and (c) form a cycle in the
// wait-for graph — each stalled buffer's traffic must enter the next stalled
// buffer. This is the *hold and wait* + *circular wait* combination of §2.1
// observed dynamically, on exactly the channel graph the static CBD analysis
// (package cbd) reasons about: a cbd.Searcher finds the cycle among the
// stalled channels, and a report names them as cbd.Channel. Both detectors
// read channels by the topology's one numbering (topology.ChannelBases) and
// turn indices into node pairs only to convict. The detectors are passive;
// whoever runs the network checks them every PollInterval.
package deadlock

import (
	"slices"

	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// The persistence window and polling period of both detectors: DCFIT's 5 ms
// design constant, checked every millisecond.
const (
	// window is how long a buffer (Detector) or a closed pause cycle (DCFIT)
	// must stay stalled before it is reported.
	window = 5 * units.Millisecond
	// PollInterval is the detectors' polling period.
	PollInterval = units.Millisecond
)

// Network is the observational slice of netsim.Network the detector needs.
// Taking an interface keeps the stall predicate unit-testable against
// synthetic snapshots (the false-positive regressions around link flaps are
// timing-dependent and near-impossible to stage reliably end-to-end).
type Network interface {
	Now() units.Time
	Topology() *topology.Topology
	AppendIngressStates(dst []netsim.IngressState) []netsim.IngressState
}

// Kind distinguishes the two permanent-standstill shapes the detector
// reports.
type Kind uint8

const (
	// CircularWait is the classic deadlock of §2.1: a cycle of occupied
	// buffers, each waiting on the next.
	CircularWait Kind = iota
	// WedgedChannel is a fault-induced permanent stall: a channel held at
	// rate zero by flow control whose downstream buffer — the only
	// legitimate holder of that backpressure — has long been empty. The
	// release signal (PFC RESUME, CBFC credit) was lost in flight, so the
	// hold never clears and everything upstream of the wedged channel
	// freezes into a stalled chain rather than a cycle.
	WedgedChannel
)

func (k Kind) String() string {
	if k == WedgedChannel {
		return "wedged-channel"
	}
	return "circular-wait"
}

// Wedge identifies a wedged channel: the stalled ingress buffer and the
// next-hop node its zero-rate egress points at (the channel
// Ingress.To→Via is the one flow control holds shut).
type Wedge struct {
	Ingress cbd.Channel
	Via     topology.NodeID
}

// Report describes a detected permanent standstill.
type Report struct {
	// At is the simulation time of detection.
	At units.Time
	// Kind says whether the standstill is a circular wait or a wedged
	// channel.
	Kind Kind
	// Cycle is one cycle of mutually waiting ingress buffers, in order:
	// each element's traffic waits on the next (CircularWait only).
	Cycle []cbd.Channel
	// Wedged describes the held-shut channel (WedgedChannel only).
	Wedged *Wedge
	// StallFor is how long the reported buffers had been stalled at
	// detection.
	StallFor units.Time
}

// Detector polls a Network for sustained circular standstill: create one
// with NewDetector and call Check periodically.
//
// The detector is stateless between polls: each buffer's no-progress
// interval is read off the network's own progress counters (the
// LastDepartAt/OccupiedSince timestamps every ingress maintains — the same
// counters the metrics registry exports), so a single snapshot decides
// stall, in the spirit of counter-based in-network detection (DCFIT).
type Detector struct {
	net   Network
	topo  *topology.Topology
	bases []int
	// rank is by channel its vertex in the wait-for graph, whose vertices
	// are the ingress buffers in (From, To) order.
	rank   []int32
	report *Report

	// A poll's scratch, kept so that a poll convicting nothing allocates
	// nothing: the snapshot, by vertex 1 + its index there (0: absent),
	// and the wait-for graph in compressed sparse row form — vertex v's
	// successors are adj[off[v]:off[v+1]], none unless v is stalled. off
	// is grown by the first poll that finds a stalled buffer; a run that
	// never stalls never pays for it.
	states []netsim.IngressState
	slot   []int32
	off    []int32
	adj    []int
	search cbd.Searcher
}

// NewDetector returns a detector over n.
func NewDetector(n Network) *Detector {
	topo := n.Topology()
	d := &Detector{net: n, topo: topo, bases: topo.ChannelBases()}
	total := d.bases[len(d.bases)-1]
	d.rank, d.slot = make([]int32, total), make([]int32, total)
	// A counting sort: visiting receivers in order fills each sender's block
	// of vertices in (To, link) order.
	next := slices.Clone(d.bases)
	for to := range topo.NumNodes() {
		for p, at := range topo.Ports(topology.NodeID(to)) {
			d.rank[d.bases[to]+p] = int32(next[at.Peer])
			next[at.Peer]++
		}
	}
	return d
}

// Deadlocked reports the detection result so far; nil when none.
func (d *Detector) Deadlocked() *Report { return d.report }

// Check samples the network once and returns a Report when a sustained
// circular standstill exists, updating the detector's state. Subsequent
// calls after detection keep returning the same report.
func (d *Detector) Check() *Report {
	if d.report != nil {
		return d.report
	}
	now := d.net.Now()
	d.states = d.net.AppendIngressStates(d.states[:0])
	clear(d.slot)
	for i := range d.states {
		d.slot[d.rank[d.states[i].Ch]] = int32(i + 1)
	}

	// A buffer is deadlock-eligible only when it holds bytes, its own
	// progress counters show no release for a full window (measured from
	// the later of the last departure and the moment it became occupied),
	// AND every channel it waits on is blocked with zero permitted rate —
	// a positive rate means hold-and-wait is broken and the buffer will
	// drain, however slowly (the GFC regime). A wait on an
	// administratively-down egress is likewise excluded: a link outage is
	// a transient condition that resolves when the link returns, not a
	// flow-control hold — counting it would report every flap on a ring
	// as a deadlock. A stalled buffer's traffic waits on each buffer w.Ch it
	// must enter next; one that is not stalled has no successors, so it
	// closes no cycle.
	d.adj = d.adj[:0]
	stalled := false
	for v, i := range d.slot {
		if d.off != nil {
			d.off[v] = int32(len(d.adj))
		}
		if i == 0 {
			continue
		}
		is := &d.states[i-1]
		blockedForever := is.Occupancy > 0 && len(is.Waits) > 0
		for _, w := range is.Waits {
			blockedForever = blockedForever && !(w.Rate > 0 || w.Down)
		}
		if blockedForever && now-stallStart(is) >= window {
			if d.off == nil {
				// The first stall: every vertex before v has no
				// successors, which the zeroed offsets say.
				d.off = make([]int32, len(d.slot)+1)
			}
			for _, w := range is.Waits {
				d.adj = append(d.adj, int(d.rank[w.Ch]))
			}
			slices.Sort(d.adj[d.off[v]:])
			stalled = true
		}
	}
	if !stalled {
		return nil
	}
	d.off[len(d.slot)] = int32(len(d.adj))
	cycle := d.search.Cycle(len(d.slot), d.successors)
	if cycle == nil {
		return d.checkWedge(now)
	}
	chans := make([]cbd.Channel, len(cycle))
	stallFor := units.Never
	for i, v := range cycle {
		chans[i] = ingress(d.topo, d.bases, d.state(v).Ch)
		stallFor = min(stallFor, now-stallStart(d.state(v)))
	}
	d.report = &Report{At: now, Kind: CircularWait, Cycle: chans, StallFor: stallFor}
	return d.report
}

// checkWedge looks for a fault-induced permanent stall that forms a chain
// instead of a cycle. Lossless flow control only holds an egress at rate
// zero while the downstream ingress buffer it protects is (near-)full —
// that buffer is the holder of the backpressure, and draining it is what
// releases the hold. A stalled buffer waiting on a zero-rate,
// administratively-up egress (as all its waits are) whose holder has been
// empty and idle for a full window is therefore wedged: the release signal
// (RESUME, credit) was lost in flight and will never be re-sent, because
// re-emission is edge-triggered on a queue the loss left permanently quiet.
// Transient holds never look like this — an in-flight release clears within
// a feedback latency, far inside the window — and GFC cannot produce the
// shape at all, since its rates never reach zero.
func (d *Detector) checkWedge(now units.Time) *Report {
	for v := range d.slot {
		if len(d.successors(v)) == 0 {
			continue // not stalled
		}
		for _, w := range d.state(v).Waits {
			u := int(d.rank[w.Ch]) // the holder; a host's is not in the snapshot
			if d.slot[u] == 0 || d.state(u).Occupancy > 0 || now-stallStart(d.state(u)) < window {
				continue
			}
			d.report = &Report{At: now, Kind: WedgedChannel, StallFor: now - stallStart(d.state(v)),
				Wedged: &Wedge{Ingress: ingress(d.topo, d.bases, d.state(v).Ch),
					Via: ingress(d.topo, d.bases, w.Ch).To}}
			return d.report
		}
	}
	return nil
}

// successors are the buffers stalled vertex v waits on, by vertex; none when
// v is not stalled. They are valid after a poll that found a stall.
func (d *Detector) successors(v int) []int { return d.adj[d.off[v]:d.off[v+1]] }

// state returns vertex v's snapshot; v must be in it.
func (d *Detector) state(v int) *netsim.IngressState { return &d.states[d.slot[v]-1] }

// stallStart is the start of is's current no-progress interval.
func stallStart(is *netsim.IngressState) units.Time { return max(is.LastDepartAt, is.OccupiedSince) }

// ingress names channel c (topology.ChannelBases numbering) by its node
// pair: from the peer across port c's link into the node holding it.
func ingress(topo *topology.Topology, bases []int, c int) cbd.Channel {
	node, p := topology.ChannelPort(bases, c)
	return cbd.Channel{From: topo.Ports(node)[p].Peer, To: node}
}
