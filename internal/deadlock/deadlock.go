// Package deadlock detects network deadlock in a running simulation. A
// deadlock is a set of ingress buffers that (a) hold traffic, (b) have made
// no forwarding progress for a sustained window, and (c) form a cycle in the
// wait-for graph — each stalled buffer's traffic must enter the next stalled
// buffer. This is the *hold and wait* + *circular wait* combination of §2.1
// observed dynamically, on exactly the channel graph the static CBD analysis
// (package cbd) reasons about: channels are cbd.Channel, and the cycle search
// over the stalled ones is cbd.Cycle. The detectors are passive; whoever
// runs the network checks them every PollInterval.
package deadlock

import (
	"cmp"
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
	net    Network
	report *Report
	states []netsim.IngressState // the last snapshot; its arrays serve the next
}

// NewDetector returns a detector over n.
func NewDetector(n Network) *Detector { return &Detector{net: n} }

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
	states := d.states

	// A buffer is deadlock-eligible only when it holds bytes, its own
	// progress counters show no release for a full window (measured from
	// the later of the last departure and the moment it became occupied),
	// AND every channel it waits on is blocked with zero permitted rate —
	// a positive rate means hold-and-wait is broken and the buffer will
	// drain, however slowly (the GFC regime). A wait on an
	// administratively-down egress is likewise excluded: a link outage is
	// a transient condition that resolves when the link returns, not a
	// flow-control hold — counting it would report every flap on a ring
	// as a deadlock. A healthy poll allocates nothing.
	var stalled []stall
	for _, is := range states {
		if is.Occupancy == 0 {
			continue
		}
		blockedForever := len(is.Waits) > 0
		for _, w := range is.Waits {
			if w.Rate > 0 || w.Down {
				blockedForever = false
				break
			}
		}
		if !blockedForever {
			continue
		}
		start := max(is.LastDepartAt, is.OccupiedSince)
		if now-start < window {
			continue
		}
		stalled = append(stalled, stall{cbd.Channel{From: is.From, To: is.Node}, is, start})
	}
	if len(stalled) == 0 {
		return nil
	}

	// Wait-for edges among stalled buffers, numbered in channel order:
	// (u→v) waits on (v→w) when traffic held in (u→v) must next enter w's
	// buffer fed by v.
	slices.SortFunc(stalled, func(a, b stall) int { return compare(a.ch, b.ch) })
	succ := make([][]int, len(stalled))
	for i, s := range stalled {
		for _, w := range s.is.Waits {
			next := cbd.Channel{From: s.ch.To, To: w.On}
			if j, ok := slices.BinarySearchFunc(stalled, next, func(s stall, c cbd.Channel) int { return compare(s.ch, c) }); ok {
				succ[i] = append(succ[i], j)
			}
		}
		slices.Sort(succ[i])
	}
	cycle := cbd.Cycle(succ)
	if cycle == nil {
		return d.checkWedge(now, states, stalled)
	}
	chans := make([]cbd.Channel, len(cycle))
	stallFor := units.Never
	for i, u := range cycle {
		chans[i] = stalled[u].ch
		stallFor = min(stallFor, now-stalled[u].start)
	}
	d.report = &Report{At: now, Kind: CircularWait, Cycle: chans, StallFor: stallFor}
	return d.report
}

// checkWedge looks for a fault-induced permanent stall that forms a chain
// instead of a cycle. Lossless flow control only holds an egress at rate
// zero while the downstream ingress buffer it protects is (near-)full —
// that buffer is the holder of the backpressure, and draining it is what
// releases the hold. A stalled buffer waiting on a zero-rate,
// administratively-up egress whose holder has been empty and idle for a
// full window is therefore wedged: the release signal (RESUME, credit) was
// lost in flight and will never be re-sent, because re-emission is
// edge-triggered on a queue the loss left permanently quiet. Transient
// holds never look like this — an in-flight release clears within a
// feedback latency, far inside the window — and GFC cannot produce the
// shape at all, since its rates never reach zero.
func (d *Detector) checkWedge(now units.Time, states []netsim.IngressState, stalled []stall) *Report {
	byChannel := make(map[cbd.Channel]netsim.IngressState, len(states))
	for _, is := range states {
		byChannel[cbd.Channel{From: is.From, To: is.Node}] = is
	}
	for _, s := range stalled {
		for _, w := range s.is.Waits {
			if w.Rate > 0 || w.Down {
				continue
			}
			holder, ok := byChannel[cbd.Channel{From: s.ch.To, To: w.On}]
			if !ok || holder.Occupancy > 0 {
				continue // host-facing or still legitimately held
			}
			if now-max(holder.LastDepartAt, holder.OccupiedSince) < window {
				continue
			}
			d.report = &Report{
				At:       now,
				Kind:     WedgedChannel,
				Wedged:   &Wedge{Ingress: s.ch, Via: w.On},
				StallFor: now - s.start,
			}
			return d.report
		}
	}
	return nil
}

// stall is one deadlock-eligible buffer: its channel, its snapshot and when
// it last made progress.
type stall struct {
	ch    cbd.Channel
	is    netsim.IngressState
	start units.Time
}

// compare orders channels by (From, To).
func compare(a, b cbd.Channel) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}
