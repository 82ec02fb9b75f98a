package deadlock

import (
	"slices"

	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// FeedbackNetwork is the observational slice of netsim.Network DCFIT needs:
// unlike the global Detector it never snapshots buffer state — it taps the
// feedback plane itself.
type FeedbackNetwork interface {
	Now() units.Time
	Topology() *topology.Topology
	SetFeedbackObserver(fn func(ch int, m flowcontrol.Message))
}

// edge identifies one pause-dependency edge in the data plane: Up, the node
// holding port, is held shut toward its peer Down by a PAUSE Down delivered.
// queue scopes it to one physical queue (BFC QPAUSE); -1 for PFC PAUSE.
type edge struct{ port, queue int }

// dcfitEdge is the state of one pause edge. tag is its initial-trigger tag:
// the global mint sequence number (older = smaller) of the pause chain the
// edge belongs to, which identifies the chain across inheritance.
type dcfitEdge struct {
	tag   int64
	since units.Time
	live  bool
}

// DCFIT is an in-data-plane deadlock detector in the style of DCFIT: instead
// of polling global buffer snapshots, it observes PAUSE/RESUME frames at
// their delivery instant and maintains the pause-dependency graph those
// frames create. Each new edge inherits the initial-trigger tag of the
// pause currently blocking its own downstream node (or mints a fresh one
// when that node is unblocked); when the chain of pauses downstream of a
// trigger loops back and pauses the trigger's own upstream — the initial
// trigger re-appearing in its own downstream set — and the closed cycle
// persists for a full window, DCFIT reports a circular wait.
//
// Scope and honesty notes, which the fault matrix deliberately surfaces:
//   - DCFIT only sees pause-based schemes (PFC PAUSE/RESUME, BFC
//     QPAUSE/QRESUME). Credit (CBFC) and rate (GFC) feedback creates no
//     pause edges, so DCFIT stays silent there by design.
//   - A lost RESUME leaves a wedged chain, not a cycle; DCFIT cannot see
//     it (the global Detector's WedgedChannel verdict can). Conversely a
//     lost PAUSE simply never creates the edge — consistent with the
//     sender's view, since the observer taps delivery, not emission.
type DCFIT struct {
	net   FeedbackNetwork
	topo  *topology.Topology
	bases []int // topo.ChannelBases(): port p of node n is channel bases[n]+p
	// edges[c][q+1] is port c's edge on queue q, [0] its channel-scoped one;
	// with up to 65 slots a port outgrows a mask word, so each slot has a
	// live flag. Grown on first use.
	edges [][]dcfitEdge
	live  int    // how many edges are live: with none, no cycle can close
	seq   int64  // the next trigger tag
	path  []edge // findCycle's scratch

	// Candidate cycle awaiting persistence: the first edge on the cycle
	// plus the cycle's initial-trigger mint sequence. A resumed edge or a
	// different cycle resets the clock.
	cand    edge
	candSeq int64
	candAt  units.Time
	hasCand bool

	report *Report
}

// NewDCFIT returns a DCFIT detector tapping n's feedback plane. Call Check
// periodically to confirm cycles.
func NewDCFIT(n FeedbackNetwork) *DCFIT {
	topo := n.Topology()
	d := &DCFIT{net: n, topo: topo, bases: topo.ChannelBases()}
	d.edges = make([][]dcfitEdge, d.bases[len(d.bases)-1])
	n.SetFeedbackObserver(d.onDeliver)
	return d
}

// Deadlocked reports the detection result so far; nil when none.
func (d *DCFIT) Deadlocked() *Report { return d.report }

// onDeliver is the feedback observer: it runs at the instant a message
// reaches the sender's port ch, after fault loss/delay.
func (d *DCFIT) onDeliver(ch int, m flowcontrol.Message) {
	queue := -1
	switch m.Kind {
	case flowcontrol.KindQueuePause, flowcontrol.KindQueueResume:
		queue = m.QueueID
	case flowcontrol.KindPause, flowcontrol.KindResume:
	default:
		return // credit/stage/queue-length feedback creates no pause edges
	}
	k := edge{ch, queue}
	e := d.at(k)
	switch m.Kind {
	case flowcontrol.KindPause, flowcontrol.KindQueuePause:
		if e.live {
			return // refresh of a held pause: dependency age unchanged
		}
		tag := d.seq
		if p, _, ok := d.parentOf(ingress(d.topo, d.bases, ch).From); ok {
			// The pausing node is itself paused: this pause continues
			// that chain, carrying its initial trigger downstream.
			tag = d.at(p).tag
		} else {
			d.seq++
		}
		*e = dcfitEdge{tag: tag, since: d.net.Now(), live: true}
		d.live++
	case flowcontrol.KindResume, flowcontrol.KindQueueResume:
		if e.live {
			e.live = false
			d.live--
		}
		if d.hasCand && d.cand == k {
			d.hasCand = false
		}
	}
}

// at returns k's slot, growing its port's slots to hold it.
func (d *DCFIT) at(k edge) *dcfitEdge {
	if es := d.edges[k.port]; len(es) <= k.queue+1 {
		d.edges[k.port] = slices.Grow(es, k.queue+2-len(es))[:k.queue+2]
	}
	return &d.edges[k.port][k.queue+1]
}

// parentOf returns the pause edge currently blocking node and its Down
// node — the oldest live edge on node's ports, ties broken by (Down, queue)
// order — or ok false.
func (d *DCFIT) parentOf(node topology.NodeID) (best edge, down topology.NodeID, ok bool) {
	var since units.Time
	for p, a := range d.topo.Ports(node) {
		c := d.bases[node] + p
		for s, e := range d.edges[c] {
			if e.live && (!ok || e.since < since || e.since == since && a.Peer < down) {
				best, down, since, ok = edge{c, s - 1}, a.Peer, e.since, true
			}
		}
	}
	return best, down, ok
}

// Check confirms whether a closed pause cycle has persisted for the window,
// updating the detector's state. Subsequent calls after detection keep
// returning the same report.
func (d *DCFIT) Check() *Report {
	if d.report != nil {
		return d.report
	}
	now := d.net.Now()
	cycle := d.findCycle()
	if cycle == nil {
		d.hasCand = false
		return nil
	}
	// The cycle's initial trigger: the earliest-minted tag among its
	// edges. Together with the anchor edge it is the cycle's identity
	// across polls — a re-formed cycle restarts the persistence clock.
	minSeq := d.at(cycle[0]).tag
	for _, k := range cycle[1:] {
		minSeq = min(minSeq, d.at(k).tag)
	}
	if !d.hasCand || d.cand != cycle[0] || d.candSeq != minSeq {
		d.hasCand = true
		d.cand, d.candSeq, d.candAt = cycle[0], minSeq, now
		return nil
	}
	if now-d.candAt < window {
		return nil
	}
	chans := make([]cbd.Channel, len(cycle))
	for i, k := range cycle {
		in := ingress(d.topo, d.bases, k.port)
		chans[i] = cbd.Channel{From: in.To, To: in.From} // the held egress
	}
	d.report = &Report{At: now, Kind: CircularWait, Cycle: chans, StallFor: now - d.candAt}
	return d.report
}

// findCycle walks the pause-dependency parent function — each edge U→D
// depends on the edge currently blocking D — from the edge blocking each node
// in turn, and returns the first closed cycle found, anchored at its lowest
// (Up, Down, queue) member, or nil. Only an edge blocking its Up node lies on
// a cycle, and a closed walk meets each node at most once. With no live edge
// there is no trigger to follow, and the walk is skipped.
func (d *DCFIT) findCycle() []edge {
	if d.live == 0 {
		return nil
	}
	for n := range d.topo.NumNodes() {
		start, down, ok := d.parentOf(topology.NodeID(n))
		d.path = append(d.path[:0], start)
		for ok && len(d.path) <= d.topo.NumNodes() {
			var next edge
			if next, down, ok = d.parentOf(down); ok && next == start {
				return d.path // closed: the walk returned to its origin
			}
			d.path = append(d.path, next)
		}
	}
	return nil
}
