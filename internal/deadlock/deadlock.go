// Package deadlock detects network deadlock in a running simulation. A
// deadlock is a set of ingress buffers that (a) hold traffic, (b) have made
// no forwarding progress for a sustained window, and (c) form a cycle in the
// wait-for graph — each stalled buffer's traffic must enter the next stalled
// buffer. This is the *hold and wait* + *circular wait* combination of §2.1
// observed dynamically, on exactly the channel graph the static CBD analysis
// (package cbd) reasons about.
package deadlock

import (
	"sort"

	"github.com/gfcsim/gfc/internal/eventsim"
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
	// PollInterval is the detectors' polling period — the cadence
	// StopOnDeadlock watchers check Deadlocked at.
	PollInterval = units.Millisecond
)

// Network is the observational slice of netsim.Network the detector needs.
// Taking an interface keeps the stall predicate unit-testable against
// synthetic snapshots (the false-positive regressions around link flaps are
// timing-dependent and near-impossible to stage reliably end-to-end).
type Network interface {
	Now() units.Time
	AppendIngressStates(dst []netsim.IngressState) []netsim.IngressState
	Engine() *eventsim.Engine
}

// ChannelKey identifies one ingress buffer: the directed channel From→Node.
type ChannelKey struct {
	From topology.NodeID
	Node topology.NodeID
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
// Ingress.Node→Via is the one flow control holds shut).
type Wedge struct {
	Ingress ChannelKey
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
	Cycle []ChannelKey
	// Wedged describes the held-shut channel (WedgedChannel only).
	Wedged *Wedge
	// StallFor is how long the reported buffers had been stalled at
	// detection.
	StallFor units.Time
}

// Detector polls a Network for sustained circular standstill. Create one
// with NewDetector and call Install to schedule periodic checks, or drive
// Check manually.
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

// Install schedules periodic checks on the network's engine until a
// deadlock is found.
func (d *Detector) Install() {
	var tick func()
	tick = func() {
		if d.Check() != nil {
			return // stop polling once detected
		}
		d.net.Engine().After(PollInterval, tick)
	}
	d.net.Engine().After(PollInterval, tick)
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
	// as a deadlock. The maps are made at the first such buffer: a healthy
	// poll touches none.
	var stalled map[ChannelKey]netsim.IngressState
	var stallStart map[ChannelKey]units.Time
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
		start := is.LastDepartAt
		if is.OccupiedSince > start {
			start = is.OccupiedSince
		}
		if now-start < window {
			continue
		}
		if stalled == nil {
			stalled = make(map[ChannelKey]netsim.IngressState)
			stallStart = make(map[ChannelKey]units.Time)
		}
		key := ChannelKey{From: is.From, Node: is.Node}
		stalled[key] = is
		stallStart[key] = start
	}
	if len(stalled) == 0 {
		return nil
	}

	// Wait-for edges among stalled buffers: (u→v) waits on (v→w) when
	// traffic held in (u→v) must next enter w's buffer fed by v.
	adj := make(map[ChannelKey][]ChannelKey, len(stalled))
	for key, is := range stalled {
		for _, w := range is.Waits {
			next := ChannelKey{From: key.Node, Node: w.On}
			if _, ok := stalled[next]; ok {
				adj[key] = append(adj[key], next)
			}
		}
		sort.Slice(adj[key], func(i, j int) bool { return less(adj[key][i], adj[key][j]) })
	}

	// Find a cycle with DFS over the stalled subgraph.
	keys := make([]ChannelKey, 0, len(stalled))
	for k := range stalled {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })

	color := make(map[ChannelKey]int, len(stalled)) // 0 white 1 grey 2 black
	parent := make(map[ChannelKey]ChannelKey, len(stalled))
	var cycFrom, cycTo *ChannelKey
	var dfs func(u ChannelKey) bool
	dfs = func(u ChannelKey) bool {
		color[u] = 1
		for _, v := range adj[u] {
			switch color[v] {
			case 0:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case 1:
				uu, vv := u, v
				cycFrom, cycTo = &uu, &vv
				return true
			}
		}
		color[u] = 2
		return false
	}
	for _, k := range keys {
		if color[k] == 0 && dfs(k) {
			break
		}
	}
	if cycFrom == nil {
		return d.checkWedge(now, states, keys, stalled, stallStart)
	}
	var rev []ChannelKey
	for u := *cycFrom; ; u = parent[u] {
		rev = append(rev, u)
		if u == *cycTo {
			break
		}
	}
	cycle := make([]ChannelKey, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		cycle = append(cycle, rev[i])
	}
	stallFor := units.Never
	for _, k := range cycle {
		if s := now - stallStart[k]; s < stallFor {
			stallFor = s
		}
	}
	d.report = &Report{At: now, Kind: CircularWait, Cycle: cycle, StallFor: stallFor}
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
func (d *Detector) checkWedge(
	now units.Time, states []netsim.IngressState, keys []ChannelKey,
	stalled map[ChannelKey]netsim.IngressState, stallStart map[ChannelKey]units.Time,
) *Report {
	byKey := make(map[ChannelKey]netsim.IngressState, len(states))
	for _, is := range states {
		byKey[ChannelKey{From: is.From, Node: is.Node}] = is
	}
	for _, key := range keys {
		is := stalled[key]
		for _, w := range is.Waits {
			if w.Rate > 0 || w.Down {
				continue
			}
			holder, ok := byKey[ChannelKey{From: key.Node, Node: w.On}]
			if !ok || holder.Occupancy > 0 {
				continue // host-facing or still legitimately held
			}
			idle := holder.LastDepartAt
			if holder.OccupiedSince > idle {
				idle = holder.OccupiedSince
			}
			if now-idle < window {
				continue
			}
			d.report = &Report{
				At:       now,
				Kind:     WedgedChannel,
				Wedged:   &Wedge{Ingress: key, Via: w.On},
				StallFor: now - stallStart[key],
			}
			return d.report
		}
	}
	return nil
}

func less(a, b ChannelKey) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.Node < b.Node
}
