// Package flowcontrol implements the hop-by-hop flow controls the paper
// studies, behind one interface: PFC (IEEE 802.1Qbb), InfiniBand
// credit-based flow control (CBFC), and the three Gentle Flow Control
// variants (conceptual, buffer-based and time-based).
//
// Flow control operates per directed channel (one direction of a link; the
// fabric carries one lossless class). The downstream ingress side is a
// Receiver that observes its queue and emits feedback Messages; the upstream
// egress side is a Sender that gates packet transmission. The simulator
// (package netsim) carries Messages from Receiver to Sender with the
// physical feedback latency and charges their wire size against the reverse
// channel, which is what the Figure 19 overhead measurement counts.
package flowcontrol

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/units"
)

// Kind enumerates feedback message types.
type Kind uint8

// Message kinds.
const (
	// KindPause / KindResume are PFC PAUSE frames (priority enable
	// vector + timer, §2.2.1).
	KindPause Kind = iota
	KindResume
	// KindStage carries a GFC stage ID in the repurposed Time[0..7]
	// field of a PFC frame (§5.1).
	KindStage
	// KindCredit carries an FCCL value, CBFC-style (§2.2.2).
	KindCredit
	// KindQueue carries an instantaneous queue length; used by the
	// conceptual design (§4.1), which assumes continuous feedback.
	KindQueue
	// KindQueuePause / KindQueueResume are BFC's per-queue pause frames
	// (Goyal et al.): like PFC PAUSE/RESUME but scoped to one physical
	// queue (Message.QueueID) instead of the whole channel. Appended
	// after the original kinds so existing golden traces keep their
	// numeric values.
	KindQueuePause
	KindQueueResume
)

func (k Kind) String() string {
	switch k {
	case KindPause:
		return "PAUSE"
	case KindResume:
		return "RESUME"
	case KindStage:
		return "STAGE"
	case KindCredit:
		return "CREDIT"
	case KindQueue:
		return "QUEUE"
	case KindQueuePause:
		return "QPAUSE"
	case KindQueueResume:
		return "QRESUME"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MessageSize is the wire size of every feedback frame: a minimum-size
// Ethernet control frame, the m of the §4.2 overhead analysis.
const MessageSize = 64 * units.Byte

// Message is one feedback frame from a Receiver to its paired Sender.
type Message struct {
	Kind    Kind
	Stage   int        // KindStage
	FCCL    int64      // KindCredit, in 64-byte blocks
	Queue   units.Size // KindQueue
	QueueID int        // KindQueuePause / KindQueueResume
}

// Clock is the simulation clock.
type Clock interface {
	Now() units.Time
}

// Env is the runtime a controller executes in: the simulation clock, timer
// service and the feedback path back to the paired Sender. Implementations
// of Emit must apply the physical feedback latency.
//
// Clock returns one clock shared by every controller of the network, and a
// Sender keeps that rather than its Env: TrySend and OnSent run per packet,
// and reading the time must not cost a load of per-channel state first.
// After is the simulation engine's: fn(arg) runs after delay d.
type Env interface {
	Clock() Clock
	After(d units.Time, fn func(int32), arg int32)
	Emit(m Message)
}

// Params configures one controller instance (one channel direction).
type Params struct {
	Capacity units.Rate // link rate C
	Buffer   units.Size // ingress buffer allocation B
	MTU      units.Size
	Tau      units.Time // worst-case feedback latency, for safety bounds
}

// Validate reports an error for inconsistent parameters.
func (p Params) Validate() error {
	if p.Capacity <= 0 {
		return fmt.Errorf("flowcontrol: capacity %v must be positive", p.Capacity)
	}
	if p.Buffer <= 0 {
		return fmt.Errorf("flowcontrol: buffer %v must be positive", p.Buffer)
	}
	if p.MTU <= 0 {
		return fmt.Errorf("flowcontrol: MTU %v must be positive", p.MTU)
	}
	if p.Tau < 0 {
		return fmt.Errorf("flowcontrol: negative tau %v", p.Tau)
	}
	return nil
}

// Sender is the egress-side half of a flow controller: it decides when the
// next packet may start transmitting.
type Sender interface {
	// TrySend asks whether a packet of size s may start now. When it
	// returns false, wake is the earliest time worth retrying, or
	// units.Never to wait for the next feedback message.
	TrySend(s units.Size) (ok bool, wake units.Time)
	// OnSent records a completed transmission of size s that occupied
	// the wire for dur.
	OnSent(s units.Size, dur units.Time)
	// OnFeedback delivers a feedback message from the paired Receiver.
	OnFeedback(m Message)
	// Rate reports the currently permitted sending rate (0 when paused);
	// diagnostic, used by traces and tests.
	Rate() units.Rate
}

// Receiver is the ingress-side half: it watches the queue and generates
// feedback.
type Receiver interface {
	// Start installs any periodic behaviour (e.g. CBFC's timer) and
	// sends the initial state.
	Start()
	// OnArrival reports that a packet of size s was admitted, bringing
	// the ingress queue to q.
	OnArrival(s, q units.Size)
	// OnDeparture reports that a packet of size s left the switch,
	// bringing the ingress queue to q.
	OnDeparture(s, q units.Size)
}

// QueueSender is implemented by Senders that gate transmission per physical
// downstream queue rather than per channel (BFC). TrySendQueue is
// side-effect-free: the scheduler probes each backlogged queue with it and
// commits via the ordinary OnSent once a packet is chosen.
type QueueSender interface {
	Sender
	// TrySendQueue asks whether a packet of size s destined for
	// downstream queue qid may start now. Same contract as TrySend.
	TrySendQueue(qid int, s units.Size) (ok bool, wake units.Time)
	// Queues reports the number of physical queues the scheme assigns
	// flows to at the downstream ingress.
	Queues() int
}

// QueueReceiver is implemented by Receivers that track per-queue occupancy
// (BFC). The simulator calls these alongside OnArrival/OnDeparture with the
// queue the packet was assigned to at the upstream egress.
type QueueReceiver interface {
	Receiver
	OnQueueArrival(qid int, s, q units.Size)
	OnQueueDeparture(qid int, s, q units.Size)
}

// RateGated is implemented by the Senders whose gate is a RateLimiter and
// nothing else — buffer-based, time-based and conceptual GFC: TrySend is ok
// exactly when the limiter's NextAllowed is not after now, and reports that
// time as the wake otherwise; OnSent is the limiter's OnPacket at now. A
// simulator that keeps per-channel state in its own arrays moves the limiter
// into one with BindLimiter, then reads and records it in place instead of
// calling TrySend and OnSent; the sender keeps using the slot for OnFeedback
// and Rate.
type RateGated interface {
	Sender
	// BindLimiter copies the sender's limiter into *slot, which the sender
	// uses from then on.
	BindLimiter(slot *RateLimiter)
}

// Bounded is implemented by Senders whose rate mapping has a finite queue
// ceiling B_m: in the absence of feedback loss the downstream ingress
// occupancy converges below it (Theorems 4.1/5.1), modulo the transient
// headroom the positive floor rate needs. Observability layers use it to
// derive the runtime occupancy ceiling they assert.
type Bounded interface {
	// Ceiling returns the mapping ceiling B_m.
	Ceiling() units.Size
}

// Staged is implemented by Senders driven by a multi-stage mapping table
// (buffer-based GFC), exposing it for static validation.
type Staged interface {
	StageTable() *core.StageTable
}

// Controller pairs the two halves for one channel.
type Controller struct {
	Sender   Sender
	Receiver Receiver
}

// Factory builds a Controller for a channel with the given parameters. The
// env's Emit must deliver messages to the returned Sender.
type Factory func(p Params, env Env) (Controller, error)
