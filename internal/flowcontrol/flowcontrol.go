// Package flowcontrol implements the hop-by-hop flow controls the paper
// studies, behind one interface: PFC (IEEE 802.1Qbb), InfiniBand
// credit-based flow control (CBFC), the three Gentle Flow Control variants
// (conceptual, buffer-based and time-based) and BFC.
//
// Flow control operates per directed channel (one direction of a link; the
// fabric carries one lossless class). The downstream ingress side is a
// receiver that observes its queue and emits feedback Messages; the upstream
// egress side is a sender that gates packet transmission. The paper's
// schemes gate a whole channel; BFC gates each of the channel's physical
// queues, and its bank says how many there are (Bank.Queues). One Bank per
// network holds both sides of every channel of a scheme in dense slices
// indexed by channel, and resolves the scheme's thresholds once per distinct
// channel class. The simulator (package netsim) carries Messages from
// receiver to sender with the physical feedback latency and charges their
// wire size against the reverse channel, which is what the Figure 19
// overhead measurement counts.
package flowcontrol

import (
	"fmt"
	"math"
	"slices"

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

// Message is one feedback frame from a receiver to its paired sender.
type Message struct {
	Kind    Kind
	Stage   int        // KindStage
	FCCL    int64      // KindCredit, in 64-byte blocks
	Queue   units.Size // KindQueue
	QueueID int        // KindQueuePause / KindQueueResume
}

// Env is the runtime every bank of one network executes in: the simulation
// clock, the engine's timer service and the feedback path. A channel is named
// by its dense index — the index its state has in the bank — so After runs
// fn(ch) after delay d, and Emit carries m from the receiver on channel ch
// back to its paired sender, applying the physical feedback latency.
type Env interface {
	Now() units.Time
	After(d units.Time, fn func(int32), ch int32)
	Emit(ch int, m Message)
}

// Params configures one channel direction.
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

// Bank is one scheme's flow control for every channel of a network. Channel
// u→v has its sender at u's egress port and its receiver at v's ingress port;
// a bank addresses each side by that port's channel index — tx for the
// sender, rx for the receiver — and keeps its state in slices indexed by it.
// An unwired channel (a failed link) reads rate 0.
//
// A bank also decides how many physical queues each channel has (Queues). A
// channel-scoped scheme has none of its own: its gate covers the whole egress
// port and it ignores the queue argument q of TrySend, OnArrival and
// OnDeparture. A per-queue scheme (BFC) gates and accounts each queue q in
// [0, Queues()) apart, and the simulator assigns every packet one.
type Bank interface {
	// Wire installs the channel whose receiver is rx and whose sender is
	// tx, with parameters p.
	Wire(rx, tx int, p Params) error
	// Start installs every wired receiver's periodic behaviour (e.g.
	// CBFC's timer) and sends its initial state, in channel order.
	Start()
	// Queues reports the number of physical queues the scheme gates per
	// channel, or 0 when its gate covers the whole channel.
	Queues() int

	// TrySend asks whether a packet of size s may start from tx's queue q
	// now, without side effects. When it returns false, wake is the
	// earliest time worth retrying, or units.Never to wait for the next
	// feedback message.
	TrySend(tx, q int, s units.Size) (ok bool, wake units.Time)
	// OnSent records a completed transmission of size s on tx that
	// occupied the wire for dur.
	OnSent(tx int, s units.Size, dur units.Time)
	// OnFeedback delivers a feedback message to tx's sender.
	OnFeedback(tx int, m Message)
	// Rate reports tx's permitted sending rate (0 when paused); diagnostic,
	// used by traces, snapshots and the deadlock detector.
	Rate(tx int) units.Rate

	// OnArrival reports that a packet of size s, sent from the upstream
	// queue q, was admitted to rx's ingress buffer, bringing it to occ;
	// OnDeparture that one left, bringing it to occ.
	OnArrival(rx, q int, s, occ units.Size)
	OnDeparture(rx, q int, s, occ units.Size)

	// Bound reports the rate mapping ceiling B_m of channel rx — in the
	// absence of feedback loss its ingress occupancy converges below it
	// (Theorems 4.1/5.1), modulo the transient headroom the positive floor
	// rate needs; 0 when the scheme has none — and its stage table (nil
	// unless buffer-based GFC).
	Bound(rx int) (bm units.Size, table *core.StageTable)
	// Limiters returns every sender's rate limiter by tx when the scheme's
	// gate is a RateLimiter and nothing else — buffer-based, time-based and
	// conceptual GFC — and nil otherwise. TrySend is then exactly the
	// limiter's Gate at now, and OnSent its OnPacket at now, so a simulator
	// may read and record the limiters in place instead of calling them.
	Limiters() []RateLimiter
}

// Factory builds a scheme's Bank for a network of chans channels running in
// env.
type Factory func(env Env, chans int) Bank

// classes files each channel of a bank under its class — its distinct Params —
// and holds what the scheme resolves from them once per class (thresholds,
// stage tables), where a fabric has thousands of channels and a handful of
// classes. Class 0 is every unwired channel's: zero Params, so its capacity,
// and the rate it reports, is 0.
type classes[C any] struct {
	params  []Params
	of      []C      // per class, resolved from its Params
	rx, tx  []uint16 // per channel, the class of its receiver and its sender
	resolve func(Params) (C, error)
}

func newClasses[C any](chans int, resolve func(Params) (C, error)) classes[C] {
	return classes[C]{params: make([]Params, 1), of: make([]C, 1),
		rx: make([]uint16, chans), tx: make([]uint16, chans), resolve: resolve}
}

// wire files channel (rx, tx) under p's class, validating and resolving p
// the first time it is seen.
func (c *classes[C]) wire(rx, tx int, p Params) error {
	k := slices.Index(c.params[1:], p) + 1
	if k == 0 {
		if err := p.Validate(); err != nil {
			return err
		}
		cfg, err := c.resolve(p)
		if err != nil {
			return err
		}
		if k = len(c.params); k > math.MaxUint16 {
			return fmt.Errorf("flowcontrol: more than %d distinct channel classes", math.MaxUint16)
		}
		c.params, c.of = append(c.params, p), append(c.of, cfg)
	}
	c.rx[rx], c.tx[tx] = uint16(k), uint16(k)
	return nil
}

// limiters is the sender half of a rate-gated bank (see Bank.Limiters): one
// RateLimiter per channel, read at the clock's time.
type limiters struct {
	env Env
	rl  []RateLimiter
}

func (l *limiters) Queues() int { return 0 }

func (l *limiters) TrySend(tx, _ int, _ units.Size) (bool, units.Time) {
	return l.rl[tx].Gate(l.env.Now())
}

func (l *limiters) OnSent(tx int, s units.Size, dur units.Time) {
	l.rl[tx].OnPacket(l.env.Now(), dur, s)
}

func (l *limiters) Rate(tx int) units.Rate { return l.rl[tx].Rate() }

func (l *limiters) Limiters() []RateLimiter { return l.rl }
