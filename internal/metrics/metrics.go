// Package metrics is the simulation-wide observability layer: a registry of
// per-channel (node, ingress port) counters — bytes in/out,
// occupancy high-water marks, feedback-message accounting split by kind
// (pause/resume, stage, credit, queue) — backed by preallocated ring-buffer
// occupancy series, plus a runtime invariant checker that turns losslessness
// and the paper's Theorem 4.1/5.1 buffer bounds into continuously asserted
// properties (see invariants.go).
//
// A Registry is bound to exactly one netsim.Network — netsim binds it when
// Config.Metrics is set — and shares no state with any other instance,
// matching the share-nothing concurrency model of internal/runner. All
// hot-path methods are allocation-free after Bind (violations are the
// exception: each recorded violation may allocate, and runs that violate
// invariants have already failed). When Config.Metrics is nil the simulator
// skips every call behind a single nil check, so the disabled cost is zero.
package metrics

import (
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// FeedbackClass buckets flow-control feedback messages for accounting. It
// mirrors flowcontrol.Kind without importing it, so the dependency points
// from the simulator into metrics only.
type FeedbackClass uint8

// Feedback classes.
const (
	FeedbackPause FeedbackClass = iota
	FeedbackResume
	FeedbackStage
	FeedbackCredit
	FeedbackQueue
)

// Options configures a Registry.
type Options struct {
	// SeriesCap is the per-channel occupancy ring-buffer capacity in
	// samples. Zero disables occupancy series (counters only) — the
	// right default for large sweeps.
	SeriesCap int
}

const (
	// seriesGap is the minimum spacing between occupancy samples: 100 µs,
	// the paper's §6.2.3 measurement bin.
	seriesGap = 100 * units.Microsecond
	// maxViolations caps how many violations a registry, and one
	// CheckNetwork call, record in full; later ones are only counted.
	maxViolations = 64
	// maxFaults caps how many injected fault events are recorded in full
	// (the count is always exact).
	maxFaults = 256
)

// PortInfo describes one ingress attachment for Bind.
type PortInfo struct {
	PeerName string     // upstream end of the channel into this port
	Buffer   units.Size // ingress allocation
}

// NodeInfo describes one node for Bind.
type NodeInfo struct {
	ID    topology.NodeID
	Name  string
	Host  bool
	Ports []PortInfo
}

// Channel is the static identity of one metrics channel: the directed
// link FromName→Node, observed at Node's ingress port Port.
type Channel struct {
	Node     topology.NodeID
	NodeName string
	Port     int
	FromName string
	Host     bool // Node is a host (its ingress consumes immediately)
}

// Counters is the per-channel counter block; its tags are the counter
// columns of a report's channels. All byte quantities are cumulative over
// the run.
type Counters struct {
	// BytesIn is data admitted into the ingress buffer; BytesOut is data
	// serialised by the upstream transmitter onto this channel (BytesOut −
	// BytesIn is in flight or dropped).
	BytesIn  units.Size `json:"bytes_in"`
	BytesOut units.Size `json:"bytes_out"`
	// Departed is data released from the ingress buffer downstream.
	Departed units.Size `json:"departed_bytes"`
	// HighWater is the maximum ingress occupancy observed.
	HighWater units.Size `json:"occupancy_high_water"`
	// LastDepartAt is the time of the most recent release. The deadlock
	// detectors do not read it: they window on netsim.IngressState.
	LastDepartAt units.Time `json:"last_depart_ns,omitempty"`
	Admits       int64      `json:"admits"`
	Drops        int64      `json:"drops,omitempty"`
	// FeedbackMsgs / FeedbackWire count flow-control messages emitted by
	// this channel's receiver and their wire bytes (the Figure 19 /
	// Table 1 overhead numerators).
	FeedbackMsgs int64      `json:"feedback_msgs"`
	FeedbackWire units.Size `json:"feedback_wire_bytes"`
	PauseMsgs    int64      `json:"pause_msgs,omitempty"`
	ResumeMsgs   int64      `json:"resume_msgs,omitempty"`
	StageMsgs    int64      `json:"stage_msgs,omitempty"`
	CreditMsgs   int64      `json:"credit_msgs,omitempty"`
	QueueMsgs    int64      `json:"queue_msgs,omitempty"`
	// LastStage / MaxStage track GFC stage feedback on this channel.
	LastStage int32 `json:"last_stage,omitempty"`
	MaxStage  int32 `json:"max_stage,omitempty"`
}

// Registry accumulates per-channel counters and invariant verdicts for one
// simulation. The zero value is unusable; construct with New and attach via
// netsim.Config.Metrics (netsim calls Bind).
type Registry struct {
	opt   Options
	bound bool
	base  []int // per node, first channel index (one channel per port follows)

	chans    []Channel
	counters []Counters
	buffers  []units.Size
	ceilings []units.Size // 0: no theorem ceiling known for the channel
	maxStage []int32      // -1: no stage table known
	rings    []ring       // empty unless SeriesCap > 0
	lastSamp []units.Time

	violations []Violation
	truncated  int64

	faults          []FaultEvent
	faultCount      int64
	faultsTruncated int64
}

// New returns an unbound registry.
func New(opt Options) *Registry { return &Registry{opt: opt} }

// Bind allocates the counter storage for the given node/port layout, one
// channel per port. netsim calls it once from New; binding twice panics (a
// Registry serves exactly one Network).
func (r *Registry) Bind(nodes []NodeInfo) {
	if r.bound {
		panic("metrics: registry already bound to a network")
	}
	r.bound = true
	r.base = make([]int, len(nodes))
	total := 0
	for i, n := range nodes {
		r.base[i] = total
		total += len(n.Ports)
	}
	r.chans = make([]Channel, total)
	r.counters = make([]Counters, total)
	r.buffers = make([]units.Size, total)
	r.ceilings = make([]units.Size, total)
	r.maxStage = make([]int32, total)
	r.lastSamp = make([]units.Time, total)
	for i := range r.maxStage {
		r.maxStage[i] = -1
	}
	for i := range r.lastSamp {
		r.lastSamp[i] = -1
	}
	for _, n := range nodes {
		for pi, p := range n.Ports {
			idx := r.base[n.ID] + pi
			r.chans[idx] = Channel{
				Node: n.ID, NodeName: n.Name, Port: pi,
				FromName: p.PeerName, Host: n.Host,
			}
			r.buffers[idx] = p.Buffer
		}
	}
	if r.opt.SeriesCap > 0 {
		r.rings = make([]ring, total)
		for i := range r.rings {
			r.rings[i].init(r.opt.SeriesCap)
		}
	}
}

// ChannelIndex returns the dense index of (node, port). The simulator keeps
// the same index on each port, so its hot path never calls this.
func (r *Registry) ChannelIndex(node topology.NodeID, port int) int {
	return r.base[node] + port
}

// Counter returns a copy of the counter block of channel idx.
func (r *Registry) Counter(idx int) Counters { return r.counters[idx] }

// OnAdmit records a packet of size s admitted to channel idx at time t,
// bringing the ingress occupancy to occ. It updates the high-water mark and
// asserts the losslessness and theorem-ceiling invariants on new maxima.
func (r *Registry) OnAdmit(idx int, t units.Time, s, occ units.Size) {
	c := &r.counters[idx]
	c.BytesIn += s
	c.Admits++
	if occ > c.HighWater {
		c.HighWater = occ
		if b := r.buffers[idx]; occ > b {
			r.violate(Violation{
				Kind: ViolationOverflow, At: t, Occupancy: occ, Limit: b,
			}, idx)
		} else if ceil := r.ceilings[idx]; ceil > 0 && occ > ceil {
			r.violate(Violation{
				Kind: ViolationCeiling, At: t, Occupancy: occ, Limit: ceil,
			}, idx)
		}
	}
	r.sample(idx, t, occ)
}

// OnRelease records a packet of size s leaving channel idx's ingress buffer
// at time t, bringing the occupancy to occ.
func (r *Registry) OnRelease(idx int, t units.Time, s, occ units.Size) {
	c := &r.counters[idx]
	c.Departed += s
	c.LastDepartAt = t
	r.sample(idx, t, occ)
}

// OnTx records s bytes serialised by the upstream transmitter onto channel
// idx.
func (r *Registry) OnTx(idx int, s units.Size) {
	r.counters[idx].BytesOut += s
}

// OnDrop records a dropped packet of size s at channel idx: occ is the
// occupancy the admission would have produced (or held, for forced drops).
// Every drop is a losslessness violation.
func (r *Registry) OnDrop(idx int, t units.Time, s, occ units.Size) {
	r.counters[idx].Drops++
	r.violate(Violation{
		Kind: ViolationDrop, At: t, Occupancy: occ, Limit: r.buffers[idx],
	}, idx)
}

// OnFeedback records one flow-control message emitted by channel idx's
// receiver: class buckets the message kind, stage carries the GFC stage for
// FeedbackStage, and wire is the frame's wire size. Stage feedback is checked
// against the channel's stage table when one was registered
// (CheckStageTable).
func (r *Registry) OnFeedback(idx int, t units.Time, class FeedbackClass, stage int, wire units.Size) {
	c := &r.counters[idx]
	c.FeedbackMsgs++
	c.FeedbackWire += wire
	switch class {
	case FeedbackPause:
		c.PauseMsgs++
	case FeedbackResume:
		c.ResumeMsgs++
	case FeedbackStage:
		c.StageMsgs++
		c.LastStage = int32(stage)
		if int32(stage) > c.MaxStage {
			c.MaxStage = int32(stage)
		}
		if max := r.maxStage[idx]; stage < 0 || (max >= 0 && int32(stage) > max) {
			r.violate(Violation{
				Kind: ViolationStageRange, At: t,
				Occupancy: units.Size(stage), Limit: units.Size(max),
			}, idx)
		}
	case FeedbackCredit:
		c.CreditMsgs++
	case FeedbackQueue:
		c.QueueMsgs++
	}
}

// RecordContinuous seeds channel idx's counters from a continuous-model
// backend in one call: bytesIn admitted to the ingress, bytesOut released
// (and transmitted) from it, peak the model's exact maximum occupancy,
// final the end-of-run occupancy and drops the whole-packet drop count.
// The invariants OnAdmit and OnDrop enforce per event apply once here — a
// peak above the buffer (or the installed ceiling) and any drop raise the
// matching violations — so CheckNetwork and the report writers treat
// fluid-produced channels exactly like packet-produced ones. Continuous
// backends track occupancy exactly in their own state, which makes one
// end-of-run call both cheaper and more precise than streaming millions of
// fractional per-step events through the per-packet hooks.
func (r *Registry) RecordContinuous(idx int, end units.Time, bytesIn, bytesOut, peak, final units.Size, drops int64) {
	c := &r.counters[idx]
	c.BytesIn += bytesIn
	c.BytesOut += bytesOut
	c.Departed += bytesOut
	if bytesOut > 0 {
		c.LastDepartAt = end
	}
	if peak > c.HighWater {
		c.HighWater = peak
		if b := r.buffers[idx]; peak > b {
			r.violate(Violation{
				Kind: ViolationOverflow, At: end, Occupancy: peak, Limit: b,
			}, idx)
		} else if ceil := r.ceilings[idx]; ceil > 0 && peak > ceil {
			r.violate(Violation{
				Kind: ViolationCeiling, At: end, Occupancy: peak, Limit: ceil,
			}, idx)
		}
	}
	if drops > 0 {
		c.Drops += drops
		r.violate(Violation{
			Kind: ViolationDrop, At: end, Occupancy: peak, Limit: r.buffers[idx],
		}, idx)
	}
	r.sample(idx, end, final)
}

// SetCeiling installs the theorem-derived occupancy ceiling for channel idx
// (B_m plus transient headroom, clamped to the buffer). netsim derives it
// from the channel's flowcontrol.Bounded sender; tests may override it to
// seed deliberate violations. Zero disables the check.
func (r *Registry) SetCeiling(idx int, ceil units.Size) {
	r.ceilings[idx] = ceil
}

// Ceiling reports the installed ceiling of channel idx (0 when none).
func (r *Registry) Ceiling(idx int) units.Size { return r.ceilings[idx] }

// sample pushes an occupancy point into the channel's ring series, rate
// limited to one sample per seriesGap.
func (r *Registry) sample(idx int, t units.Time, occ units.Size) {
	if r.rings == nil {
		return
	}
	if last := r.lastSamp[idx]; last >= 0 && t-last < seriesGap {
		return
	}
	r.lastSamp[idx] = t
	r.rings[idx].push(t, float64(occ))
}
