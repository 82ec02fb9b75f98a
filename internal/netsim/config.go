package netsim

import (
	"fmt"
	"math"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// hostBuffer is the ingress allocation used for host-attached receive sides:
// hosts consume packets immediately, so the buffer only needs to be
// nominally unoverflowable.
const hostBuffer = 1 << 40 * units.Byte

// Config parameterises a simulation.
type Config struct {
	// MTU is the maximum packet size; default 1500 B (Ethernet).
	MTU units.Size
	// BufferSize is the per-ingress-port buffer of every switch (the
	// paper's experiments use a single lossless class). Required.
	BufferSize units.Size
	// ProcDelay is the feedback-message processing time t_r; default
	// 3 µs (§5.4).
	ProcDelay units.Time
	// Tau overrides the per-channel worst-case feedback latency used to
	// derive flow-control parameters. Zero derives it per link from
	// equation (6). The testbed experiments set 90 µs to reflect
	// software switching.
	Tau units.Time
	// FlowControl builds the controller for every channel direction.
	// Required.
	FlowControl flowcontrol.Factory
	// ECNThreshold enables DCQCN-style marking: packets enqueued to an
	// egress queue holding at least this many bytes are ECN-marked.
	// Zero disables marking.
	ECNThreshold units.Size
	// Scheduling is the switching discipline; the zero value is
	// SchedInputQueued (input-queued with head-of-line blocking), the
	// model of the paper's testbed switch every figure runs under. A bank
	// that gates each physical queue (flowcontrol.Bank.Queues() > 0, BFC)
	// overrides it with SchedFIFO over that many queues per egress, with
	// dynamic flow→queue assignment: a flow with queued packets stays in
	// its queue and a new flow takes the emptiest one — BFC's design point
	// is that the physical queues themselves replace ingress FIFOs and
	// VOQs.
	Scheduling Scheduling
	// TxRing is the per-egress TX ring capacity in packets for
	// SchedBlocking; default 128 (DPDK rings are a few hundred
	// descriptors).
	TxRing int
	// Trace receives observation callbacks; may be nil.
	Trace *Trace
	// Metrics, when non-nil, is bound to this network at construction and
	// accumulates per-channel counters plus runtime invariant verdicts
	// (losslessness, theorem ceilings). Every hot-path call is guarded by
	// a single nil check, so a nil Metrics costs nothing. The registry
	// must be fresh (unbound) and must not be shared across networks.
	Metrics *metrics.Registry
	// Faults, when non-nil, executes a compiled fault plan against this
	// network: its timeline events (flaps, rate degradation, bursts) are
	// scheduled on the engine at construction, and the feedback path
	// consults it per message. Like Metrics it sits behind one nil check —
	// a nil Faults costs nothing — and like Metrics it must be fresh
	// (faults.Plan.NewInjector per network): the injector owns the fault
	// plan's random source, and sharing one would interleave draws across
	// networks and destroy per-seed reproducibility.
	Faults *faults.Injector
}

// FillDefaults sets every unset field that has a default. New applies it; the
// scenario compiler applies it once up front so that everything reasoning
// about a configured network — the fluid solver, the analytic predictor —
// reads the values the packet engine will run with instead of re-deriving
// them. Idempotent.
func (c *Config) FillDefaults() {
	if c.MTU == 0 {
		c.MTU = 1500 * units.Byte
	}
	if c.ProcDelay == 0 {
		c.ProcDelay = 3 * units.Microsecond
	}
	if c.TxRing == 0 {
		c.TxRing = 128
	}
}

// ingressBuffer is the ingress allocation of a port on a node of the given
// kind.
func (c *Config) ingressBuffer(kind topology.Kind) units.Size {
	if kind == topology.Host {
		return hostBuffer
	}
	return c.BufferSize
}

// ChannelTau is the worst-case feedback latency τ that flow control budgets
// for on the channel over link l: the configured override, else equation (6)
// for that link. c must be default-filled.
func (c *Config) ChannelTau(l *topology.Link) units.Time {
	if c.Tau > 0 {
		return c.Tau
	}
	return core.Tau(l.Capacity, c.MTU, l.Delay, c.ProcDelay)
}

// ChannelParams are the flow-control parameters of the channel over link l
// into a node of the given kind — what New hands the FlowControl factory for
// that channel, and what any other model of the same network must resolve
// thresholds from. c must be default-filled.
func (c *Config) ChannelParams(l *topology.Link, kind topology.Kind) flowcontrol.Params {
	return flowcontrol.Params{
		Capacity: l.Capacity,
		Buffer:   c.ingressBuffer(kind),
		MTU:      c.MTU,
		Tau:      c.ChannelTau(l),
	}
}

func (c *Config) validate() error {
	if c.MTU > math.MaxInt32 {
		return fmt.Errorf("netsim: MTU %v exceeds a packet's size field (at most %d bytes)", c.MTU, math.MaxInt32)
	}
	if c.BufferSize <= 0 {
		return fmt.Errorf("netsim: BufferSize must be positive")
	}
	if c.FlowControl == nil {
		return fmt.Errorf("netsim: FlowControl factory is required")
	}
	return nil
}

// Scheduling selects how an egress port serves packets from different input
// ports.
type Scheduling uint8

// Switching disciplines.
const (
	// SchedInputQueued models the paper's testbed switch (§6.1.1): a
	// FIFO ingress ring per input port, served round-robin by the
	// forwarding path, with head-of-line blocking — a packet whose
	// egress cannot transmit blocks everything behind it on the same
	// input. This is the discipline under which PFC/CBFC deadlock exactly
	// as the paper reports, and it is the default.
	SchedInputQueued Scheduling = iota
	// SchedFIFO is a simple output-queued switch: each egress transmits
	// in arrival order across all inputs. Under sustained
	// oversubscription an input's service share equals its arrival
	// share.
	SchedFIFO
	// SchedVOQ keeps a virtual output queue per input port at each
	// egress and serves them round-robin — per-input fairness with no
	// head-of-line blocking, as in ideal crossbar fabrics.
	SchedVOQ
	// SchedBlocking models the paper's DPDK software switch faithfully:
	// a forwarding core serves the ingress FIFOs round-robin and moves
	// packets into bounded per-egress TX rings. When the selected head's
	// TX ring is full the whole forwarding path stalls until that ring
	// has room — which is what lets a PFC-paused port freeze an entire
	// switch and cascade into the deadlocks of Figures 9/10, while
	// GFC's always-positive drain keeps the stalls transient.
	SchedBlocking
)

func (s Scheduling) String() string {
	switch s {
	case SchedInputQueued:
		return "input-queued"
	case SchedFIFO:
		return "fifo"
	case SchedVOQ:
		return "voq"
	case SchedBlocking:
		return "blocking"
	default:
		return "scheduling(?)"
	}
}
