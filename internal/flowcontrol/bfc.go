package flowcontrol

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/units"
)

// DefaultBFCQueues is the number of physical queues BFC assigns flows to at
// each ingress when the config does not say otherwise. The BFC paper shows
// most of the benefit with a small multiple of the expected active-flow
// count per port; 8 keeps the per-channel state compact.
const DefaultBFCQueues = 8

// BFCConfig configures Backpressure Flow Control (Goyal et al., NSDI 2022):
// each ingress maintains a set of physical queues, flows are dynamically
// assigned to queues at enqueue time, and pause/resume feedback is scoped to
// one queue instead of the whole channel. A paused queue stops only the
// flows mapped to it — the victim flows of classic PFC head-of-line blocking
// keep moving through the other queues.
type BFCConfig struct {
	// Queues is the number of physical queues per channel.
	// Zero means DefaultBFCQueues.
	Queues int
	// XOFF pauses a queue when its occupancy reaches it; XON resumes at
	// or below it. Both are per-queue thresholds.
	XOFF units.Size
	XON  units.Size
}

// RecommendedBFC derives per-queue thresholds from the channel parameters:
// the buffer minus the Cτ in-flight headroom is split evenly across queues
// (so even with every queue parked at XOFF the channel stays lossless), and
// XON sits one MTU below XOFF. Buffers too small to give every queue a
// positive XON are rejected.
func RecommendedBFC(p Params, queues int) (BFCConfig, error) {
	if queues <= 0 {
		queues = DefaultBFCQueues
	}
	headroom := units.BytesIn(p.Capacity, p.Tau)
	xoff := (p.Buffer - headroom) / units.Size(queues)
	xon := xoff - p.MTU
	if xon <= 0 {
		return BFCConfig{}, fmt.Errorf(
			"flowcontrol: buffer %v too small for BFC with %d queues: need more than Cτ + queues·MTU = %v",
			p.Buffer, queues, headroom+units.Size(queues)*p.MTU)
	}
	return BFCConfig{Queues: queues, XOFF: xoff, XON: xon}, nil
}

// Validate reports an error for inconsistent thresholds.
func (c BFCConfig) Validate(p Params) error {
	q := c.Queues
	if q == 0 {
		q = DefaultBFCQueues
	}
	if q < 0 {
		return fmt.Errorf("flowcontrol: BFC queues %d must be positive", c.Queues)
	}
	if c.XOFF <= 0 {
		return fmt.Errorf("flowcontrol: BFC XOFF %v must be positive", c.XOFF)
	}
	if c.XON <= 0 || c.XON > c.XOFF {
		return fmt.Errorf("flowcontrol: BFC XON %v outside (0, XOFF=%v]", c.XON, c.XOFF)
	}
	if total := units.Size(q)*c.XOFF + units.BytesIn(p.Capacity, p.Tau); total > p.Buffer {
		return fmt.Errorf("flowcontrol: %d queues at XOFF %v plus Cτ headroom exceed buffer %v",
			q, c.XOFF, p.Buffer)
	}
	return nil
}

// NewBFC returns a Factory for BFC with explicit thresholds.
func NewBFC(cfg BFCConfig) Factory {
	return func(p Params, env Env) (Controller, error) {
		if err := p.Validate(); err != nil {
			return Controller{}, err
		}
		if err := cfg.Validate(p); err != nil {
			return Controller{}, err
		}
		if cfg.Queues == 0 {
			cfg.Queues = DefaultBFCQueues
		}
		return Controller{
			Sender:   &bfcSender{p: p, cfg: cfg, paused: make([]bool, cfg.Queues)},
			Receiver: &bfcReceiver{cfg: cfg, env: env, qlen: make([]units.Size, cfg.Queues), paused: make([]bool, cfg.Queues)},
		}, nil
	}
}

// NewBFCQueues returns a BFC Factory with RecommendedBFC thresholds over the
// given queue count (<= 0 uses DefaultBFCQueues).
func NewBFCQueues(queues int) Factory {
	return func(p Params, env Env) (Controller, error) {
		cfg, err := RecommendedBFC(p, queues)
		if err != nil {
			return Controller{}, err
		}
		return NewBFC(cfg)(p, env)
	}
}

// bfcSender gates transmission per downstream queue: a queue is blocked
// while a QPAUSE for it is outstanding, everything else moves at line rate.
type bfcSender struct {
	p   Params
	cfg BFCConfig

	paused  []bool
	npaused int
}

func (s *bfcSender) Queues() int { return s.cfg.Queues }

func (s *bfcSender) TrySendQueue(qid int, _ units.Size) (bool, units.Time) {
	if s.paused[qid] {
		return false, units.Never // a QRESUME will kick us
	}
	return true, 0
}

// TrySend is the channel-level fallback used when the simulator has no
// per-queue scheduler wired (hosts, or FlowQueues disabled): send while any
// queue is unpaused.
func (s *bfcSender) TrySend(units.Size) (bool, units.Time) {
	if s.npaused == len(s.paused) {
		return false, units.Never
	}
	return true, 0
}

func (s *bfcSender) OnSent(units.Size, units.Time) {}

func (s *bfcSender) OnFeedback(m Message) {
	if m.QueueID < 0 || m.QueueID >= len(s.paused) {
		return
	}
	switch m.Kind {
	case KindQueuePause:
		if !s.paused[m.QueueID] {
			s.paused[m.QueueID] = true
			s.npaused++
		}
	case KindQueueResume:
		if s.paused[m.QueueID] {
			s.paused[m.QueueID] = false
			s.npaused--
		}
	}
}

// Rate reports line rate while any queue may send, zero when every queue is
// paused. Diagnostic only: the scheduler uses TrySendQueue per backlog.
func (s *bfcSender) Rate() units.Rate {
	if s.npaused == len(s.paused) {
		return 0
	}
	return s.p.Capacity
}

// bfcReceiver tracks per-queue ingress occupancy and emits QPAUSE/QRESUME
// around the per-queue thresholds, mirroring pfcReceiver's believed-state
// dedup so a queue bouncing inside (XON, XOFF) stays silent.
type bfcReceiver struct {
	cfg BFCConfig
	env Env

	qlen   []units.Size
	paused []bool // believed upstream state per queue
}

func (r *bfcReceiver) Start() {}

// OnArrival / OnDeparture are no-ops: all accounting arrives through the
// per-queue variants.
func (r *bfcReceiver) OnArrival(_, _ units.Size)   {}
func (r *bfcReceiver) OnDeparture(_, _ units.Size) {}

func (r *bfcReceiver) OnQueueArrival(qid int, s, _ units.Size) {
	r.qlen[qid] += s
	if !r.paused[qid] && r.qlen[qid] >= r.cfg.XOFF {
		r.paused[qid] = true
		r.env.Emit(Message{Kind: KindQueuePause, QueueID: qid})
	}
}

func (r *bfcReceiver) OnQueueDeparture(qid int, s, _ units.Size) {
	r.qlen[qid] -= s
	if r.qlen[qid] < 0 {
		r.qlen[qid] = 0
	}
	if r.paused[qid] && r.qlen[qid] <= r.cfg.XON {
		r.paused[qid] = false
		r.env.Emit(Message{Kind: KindQueueResume, QueueID: qid})
	}
}
