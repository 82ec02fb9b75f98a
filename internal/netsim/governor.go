package netsim

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/gfcsim/gfc/internal/units"
)

// This file is the run governor: a bounded-execution path for simulations
// that must not be trusted to terminate. Plain Run stays the uninstrumented
// fast path; RunBounded runs the event engine in slices of governorSlice
// events and between two slices checks cancellation, event, wall-clock and
// heap budgets, and a sim-time stall watchdog. A tripped governor returns a
// structured *RunError carrying a flight-recorder Snapshot instead of
// hanging the caller.

// Budget bounds one RunBounded execution. The zero value imposes no bounds
// (only ctx cancellation applies).
type Budget struct {
	// MaxEvents caps how many events this call may fire; 0 is unlimited.
	// The cap is exact: a tripped run has fired MaxEvents events.
	MaxEvents uint64
	// MaxWall caps the host wall-clock time of the call; 0 is unlimited.
	MaxWall time.Duration
	// StallEvents arms the livelock watchdog: if this many consecutive
	// events fire while neither the simulation clock nor the
	// delivered/dropped byte counters advance, the run is declared
	// stalled. Progress is observed between slices, so the trip comes
	// within one governorSlice past this count. A run that is slow but
	// keeps moving sim time never trips it. 0 disables the watchdog.
	StallEvents uint64
	// MaxHeap is the OOM guard: if the Go heap (runtime.MemStats.HeapAlloc)
	// exceeds this many bytes at a governor check, the run stops with
	// StopHeapBudget before the kernel's OOM killer takes the whole sweep
	// process down. The heap is sampled on every heapCheckStride-th check,
	// so at least once every heapCheckStride×governorSlice = 262 144 events
	// (ReadMemStats stops the world briefly); 0 disables the guard.
	MaxHeap uint64
}

// Overlay returns b with every field that o sets replaced by o's value —
// how caller-side budget flags override a scenario's declared Limits.
func (b Budget) Overlay(o Budget) Budget {
	if o.MaxEvents != 0 {
		b.MaxEvents = o.MaxEvents
	}
	if o.MaxWall != 0 {
		b.MaxWall = o.MaxWall
	}
	if o.StallEvents != 0 {
		b.StallEvents = o.StallEvents
	}
	if o.MaxHeap != 0 {
		b.MaxHeap = o.MaxHeap
	}
	return b
}

// StopReason says why the governor ended a run.
type StopReason uint8

// Governor stop reasons.
const (
	// StopCancelled: the caller's context was cancelled.
	StopCancelled StopReason = iota
	// StopEventBudget: Budget.MaxEvents was exhausted.
	StopEventBudget
	// StopWallBudget: Budget.MaxWall elapsed on the host clock.
	StopWallBudget
	// StopStalled: the livelock watchdog saw Budget.StallEvents events
	// with no sim-time or delivery progress.
	StopStalled
	// StopHeapBudget: the Go heap exceeded Budget.MaxHeap (OOM guard).
	StopHeapBudget
)

func (r StopReason) String() string {
	switch r {
	case StopCancelled:
		return "cancelled"
	case StopEventBudget:
		return "event budget exhausted"
	case StopWallBudget:
		return "wall-clock budget exhausted"
	case StopStalled:
		return "stalled (livelock watchdog)"
	case StopHeapBudget:
		return "heap budget exhausted (OOM guard)"
	default:
		return fmt.Sprintf("stop reason(%d)", r)
	}
}

// RunError is the structured verdict of a tripped governor. It wraps the
// causing error (the context error for cancellations) and carries the
// flight-recorder snapshot taken at the stop point.
type RunError struct {
	Reason   StopReason
	Cause    error // non-nil for StopCancelled
	Snapshot *Snapshot
}

func (e *RunError) Error() string {
	s := e.Snapshot
	msg := fmt.Sprintf("netsim: run stopped: %v at t=%v after %d events", e.Reason, s.At, s.Events)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the cause, so errors.Is(err, context.Canceled) works on a
// cancelled run.
func (e *RunError) Unwrap() error { return e.Cause }

// PacketCensus counts the live packets of a network by where they sit.
type PacketCensus struct {
	// InputQueued packets wait in switch ingress FIFOs
	// (input-queued/blocking disciplines).
	InputQueued int `json:"input_queued"`
	// EgressQueued packets wait in egress VOQs / TX rings.
	EgressQueued int `json:"egress_queued"`
	// Transmitting packets are mid-serialisation at a port.
	Transmitting int `json:"transmitting"`
	// OnWire packets are propagating on a link toward their next hop.
	OnWire int `json:"on_wire"`
}

// Total is the number of live packets in the fabric.
func (c PacketCensus) Total() int {
	return c.InputQueued + c.EgressQueued + c.Transmitting + c.OnWire
}

// ChannelDump is one non-idle channel's flight-recorder line: current
// ingress occupancy and egress backlog, plus — when a metrics registry is
// bound — the occupancy high-water mark and the last/max GFC stage
// transitions seen on the channel.
type ChannelDump struct {
	Node string `json:"node"`
	Port int    `json:"port"`

	Occupancy   units.Size `json:"occupancy"`
	QueuedBytes units.Size `json:"queued_bytes"`
	Rate        units.Rate `json:"rate"`

	// HighWater, LastStage and MaxStage come from the metrics registry;
	// without one they are 0, -1, -1.
	HighWater units.Size `json:"high_water,omitempty"`
	LastStage int32      `json:"last_stage"`
	MaxStage  int32      `json:"max_stage"`
}

// maxSnapshotChannels caps the per-channel section of a Snapshot; a k=16
// fat-tree has thousands of channels and a diagnostic dump needs the busy
// ones, not all of them.
const maxSnapshotChannels = 64

// governorSlice is how many events RunBounded fires between two checks of
// its budgets (fewer where the event budget or the stall watchdog's deadline
// falls inside the slice). A check reads running counters (TotalDelivered is
// a sum kept on delivery), so it is O(1) whatever the flow count, and a slice
// this long keeps the overhead well under a percent while bounding detection
// latency.
const governorSlice = 4096

// heapCheckStride spaces out the OOM guard's ReadMemStats calls: the heap
// is sampled on every heapCheckStride-th check (including the first),
// because ReadMemStats briefly stops the world and a per-check call would
// dominate governor overhead. That is at least once every 262 144 events —
// far faster than a leaking run grows gigabytes.
const heapCheckStride = 64

// Snapshot is the flight-recorder state attached to a RunError: enough to
// localise a wedged or runaway run without re-running it under a debugger.
type Snapshot struct {
	// At is the simulation time at the stop point; Events is how many
	// events the bounded run had fired, and Pending how many were still
	// queued.
	At      units.Time `json:"at_ns"`
	Events  uint64     `json:"events"`
	Pending int        `json:"pending"`
	// EngineEvents is the engine's lifetime fired-event counter (panics
	// in event callbacks report it, making stacks cross-referenceable).
	EngineEvents uint64 `json:"engine_events"`

	Delivered units.Size   `json:"delivered_bytes"`
	Drops     int64        `json:"drops"`
	Packets   PacketCensus `json:"packets"`

	// Channels lists the non-idle channels (occupied ingress or backlogged
	// egress), ordered by (node, port) and capped at
	// maxSnapshotChannels; ChannelsTruncated counts the omitted ones and
	// ChannelsNonIdle the fabric-wide total, so a capped dump is never
	// misread as the complete picture.
	Channels          []ChannelDump `json:"channels,omitempty"`
	ChannelsTruncated int           `json:"channels_truncated,omitempty"`
	ChannelsNonIdle   int           `json:"channels_non_idle,omitempty"`
}

// String renders the snapshot as a human-readable flight-recorder report.
func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: t=%v events=%d (engine %d) pending=%d\n",
		s.At, s.Events, s.EngineEvents, s.Pending)
	fmt.Fprintf(&b, "  delivered=%v drops=%d\n", s.Delivered, s.Drops)
	c := s.Packets
	fmt.Fprintf(&b, "  live packets: %d (ingress %d, egress %d, transmitting %d, on wire %d)\n",
		c.Total(), c.InputQueued, c.EgressQueued, c.Transmitting, c.OnWire)
	for _, ch := range s.Channels {
		fmt.Fprintf(&b, "  %s port %d: occupancy=%v queued=%v rate=%v",
			ch.Node, ch.Port, ch.Occupancy, ch.QueuedBytes, ch.Rate)
		if ch.HighWater > 0 {
			fmt.Fprintf(&b, " highwater=%v", ch.HighWater)
		}
		if ch.LastStage >= 0 {
			fmt.Fprintf(&b, " stage=%d/max %d", ch.LastStage, ch.MaxStage)
		}
		b.WriteString("\n")
	}
	if s.ChannelsTruncated > 0 {
		fmt.Fprintf(&b, "  ... %d more non-idle channels (%d of %d shown)\n",
			s.ChannelsTruncated, len(s.Channels), s.ChannelsNonIdle)
	}
	return b.String()
}

// Snapshot captures the flight-recorder state of the network right now. It
// allocates (diagnostic path) and may be called at any time, not only from
// the governor.
func (n *Network) Snapshot() *Snapshot {
	s := &Snapshot{
		At:           n.eng.Now(),
		Pending:      n.eng.Pending(),
		EngineEvents: n.eng.Fired(),
		Delivered:    n.TotalDelivered(),
		Drops:        n.drops,
	}
	for _, nd := range n.nodes {
		for i := range nd.ports {
			p := &nd.ports[i]
			if p.txPkt != nil {
				s.Packets.Transmitting++
			}
			s.Packets.OnWire += p.prop.len()
			ch := p.cb
			s.Packets.InputQueued += n.inq[ch].len()
			for i := 0; i < p.slots; i++ {
				s.Packets.EgressQueued += n.voqs[p.voqBase+i].len()
			}
			occ := n.occupancy[ch]
			queued := n.queuedBytes[ch]
			if occ == 0 && queued == 0 {
				continue
			}
			s.ChannelsNonIdle++
			if len(s.Channels) >= maxSnapshotChannels {
				s.ChannelsTruncated++
				continue
			}
			dump := ChannelDump{
				Node: n.topo.Node(nd.id).Name, Port: p.local,
				Occupancy: occ, QueuedBytes: queued,
				LastStage: -1, MaxStage: -1,
			}
			dump.Rate = n.fc.Rate(ch)
			if reg := n.metrics; reg != nil {
				c := reg.Counter(ch)
				dump.HighWater = c.HighWater
				dump.LastStage = c.LastStage
				dump.MaxStage = c.MaxStage
			}
			s.Channels = append(s.Channels, dump)
		}
	}
	return s
}

// RunBounded advances the simulation to the given time like Run, but under
// a governor: the engine runs in slices of governorSlice events, each cut
// short where it would overrun the event budget or the stall watchdog's
// deadline (StallEvents after the last check that saw progress), and between
// two slices the context is polled, the event, wall-clock and heap budgets
// are enforced, and the stall watchdog detects livelock (events firing with
// neither sim time nor delivery advancing). It returns nil when the run reached the horizon,
// drained its queue or was stopped within budget, and a *RunError with a
// flight-recorder snapshot otherwise. Nothing stays attached to the engine,
// so subsequent plain Run calls pay nothing.
func (n *Network) RunBounded(ctx context.Context, until units.Time, b Budget) error {
	n.mustBeOpen()
	eng := n.eng
	start := eng.Fired()
	var deadline time.Time
	if b.MaxWall > 0 {
		deadline = time.Now().Add(b.MaxWall)
	}
	// Stall watchdog state: progress is sim time, delivered bytes or drops
	// advancing since the last check.
	lastNow, lastDelivered, lastDrops := eng.Now(), n.TotalDelivered(), n.drops
	stallSince := start
	for tick := uint64(0); ; tick++ {
		slice := uint64(governorSlice)
		if b.MaxEvents > 0 {
			slice = min(slice, b.MaxEvents-(eng.Fired()-start))
		}
		if b.StallEvents > 0 {
			slice = min(slice, stallSince+b.StallEvents-eng.Fired())
		}
		if !eng.RunFor(until, slice) {
			return nil
		}
		stalled := false
		if b.StallEvents > 0 {
			now, delivered, drops := eng.Now(), n.TotalDelivered(), n.drops
			if now != lastNow || delivered != lastDelivered || drops != lastDrops {
				lastNow, lastDelivered, lastDrops = now, delivered, drops
				stallSince = eng.Fired()
			} else {
				stalled = eng.Fired()-stallSince >= b.StallEvents
			}
		}
		var reason StopReason
		cause := ctx.Err()
		switch {
		case cause != nil:
			reason = StopCancelled
		case b.MaxEvents > 0 && eng.Fired()-start >= b.MaxEvents:
			reason = StopEventBudget
		case b.MaxWall > 0 && time.Now().After(deadline):
			reason = StopWallBudget
		case b.MaxHeap > 0 && tick%heapCheckStride == 0 && heapAlloc() > b.MaxHeap:
			reason = StopHeapBudget
		case stalled:
			reason = StopStalled
		default:
			continue
		}
		s := n.Snapshot()
		s.Events = eng.Fired() - start
		return &RunError{Reason: reason, Cause: cause, Snapshot: s}
	}
}

// heapAlloc reads the Go heap's live bytes for the OOM guard.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
