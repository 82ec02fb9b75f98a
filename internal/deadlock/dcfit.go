package deadlock

import (
	"cmp"
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
	SetFeedbackObserver(fn func(from, to topology.NodeID, m flowcontrol.Message))
}

// EdgeKey identifies one pause-dependency edge in the data plane: the
// channel Up→Down is held shut because Down delivered a PAUSE to Up. Queue
// scopes the edge to one physical queue for per-flow-queue schemes (BFC
// QPAUSE); -1 for channel-scoped PFC PAUSE.
type EdgeKey struct {
	Up, Down topology.NodeID
	Queue    int
}

// dcfitEdge is the live state of one pause edge. tag is its initial-trigger
// tag: the global mint sequence number (older = smaller) of the pause chain
// the edge belongs to, which identifies the chain across inheritance.
type dcfitEdge struct {
	tag   int64
	since units.Time
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
	edges map[EdgeKey]dcfitEdge
	seq   int64
	// keys and path are findCycle's scratch, kept so a poll over live pause
	// edges allocates nothing.
	keys, path []EdgeKey

	// Candidate cycle awaiting persistence: the lowest-keyed edge on the
	// cycle plus the cycle's initial-trigger mint sequence. A resumed edge
	// or a different cycle resets the clock.
	candKey EdgeKey
	candSeq int64
	candAt  units.Time
	hasCand bool

	report *Report
}

// NewDCFIT returns a DCFIT detector tapping n's feedback plane. Call Check
// periodically to confirm cycles.
func NewDCFIT(n FeedbackNetwork) *DCFIT {
	d := &DCFIT{net: n, edges: make(map[EdgeKey]dcfitEdge)}
	n.SetFeedbackObserver(d.onDeliver)
	return d
}

// Deadlocked reports the detection result so far; nil when none.
func (d *DCFIT) Deadlocked() *Report { return d.report }

// onDeliver is the feedback observer: it runs at the instant a message
// reaches its sender, after fault loss/delay.
func (d *DCFIT) onDeliver(from, to topology.NodeID, m flowcontrol.Message) {
	queue := -1
	switch m.Kind {
	case flowcontrol.KindQueuePause, flowcontrol.KindQueueResume:
		queue = m.QueueID
	case flowcontrol.KindPause, flowcontrol.KindResume:
	default:
		return // credit/stage/queue-length feedback creates no pause edges
	}
	key := EdgeKey{Up: to, Down: from, Queue: queue}
	switch m.Kind {
	case flowcontrol.KindPause, flowcontrol.KindQueuePause:
		if _, ok := d.edges[key]; ok {
			return // refresh of a held pause: dependency age unchanged
		}
		tag := d.seq
		if _, p, ok := d.parentOf(from); ok {
			// The pausing node is itself paused: this pause continues
			// that chain, carrying its initial trigger downstream.
			tag = p.tag
		} else {
			d.seq++
		}
		d.edges[key] = dcfitEdge{tag: tag, since: d.net.Now()}
	case flowcontrol.KindResume, flowcontrol.KindQueueResume:
		delete(d.edges, key)
		if d.hasCand && d.candKey == key {
			d.hasCand = false
		}
	}
}

// parentOf returns the pause edge currently blocking node and its key — the
// oldest edge whose Up side is node (ties broken by key order, so the
// choice is deterministic regardless of map iteration) — or ok false.
func (d *DCFIT) parentOf(node topology.NodeID) (bestKey EdgeKey, best dcfitEdge, ok bool) {
	for k, e := range d.edges {
		if k.Up != node {
			continue
		}
		if !ok || e.since < best.since ||
			(e.since == best.since && edgeCmp(k, bestKey) < 0) {
			bestKey, best, ok = k, e, true
		}
	}
	return bestKey, best, ok
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
	minSeq := d.edges[cycle[0]].tag
	for _, k := range cycle[1:] {
		if s := d.edges[k].tag; s < minSeq {
			minSeq = s
		}
	}
	if !d.hasCand || d.candKey != cycle[0] || d.candSeq != minSeq {
		d.hasCand = true
		d.candKey, d.candSeq, d.candAt = cycle[0], minSeq, now
		return nil
	}
	if now-d.candAt < window {
		return nil
	}
	chans := make([]cbd.Channel, len(cycle))
	for i, k := range cycle {
		chans[i] = cbd.Channel{From: k.Up, To: k.Down}
	}
	d.report = &Report{
		At:       now,
		Kind:     CircularWait,
		Cycle:    chans,
		StallFor: now - d.candAt,
	}
	return d.report
}

// findCycle walks the pause-dependency parent function — each edge U→D
// depends on the edge currently blocking D — from every edge in key order
// and returns the first closed cycle found, anchored at its lowest-keyed
// member, or nil.
func (d *DCFIT) findCycle() []EdgeKey {
	if len(d.edges) == 0 {
		return nil
	}
	d.keys = d.keys[:0]
	for k := range d.edges {
		d.keys = append(d.keys, k)
	}
	slices.SortFunc(d.keys, edgeCmp)
	for _, start := range d.keys {
		d.path = append(d.path[:0], start)
		cur := start
		for range d.keys {
			next, _, ok := d.parentOf(cur.Down)
			if !ok {
				break
			}
			if next == start {
				return d.path // closed: the walk returned to its origin
			}
			d.path = append(d.path, next)
			cur = next
		}
		// The walk either dead-ended or entered a cycle not containing
		// start; that cycle is found when iteration reaches its members.
	}
	return nil
}

func edgeCmp(a, b EdgeKey) int {
	return cmp.Or(cmp.Compare(a.Up, b.Up), cmp.Compare(a.Down, b.Down),
		cmp.Compare(a.Queue, b.Queue))
}
