package flowcontrol

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/units"
)

// DefaultBFCQueues is the number of physical queues BFC assigns flows to at
// each ingress when NewBFCQueues is not told otherwise. The BFC paper shows
// most of the benefit with a small multiple of the expected active-flow
// count per port; 8 keeps the per-channel state compact.
const DefaultBFCQueues = 8

// MaxBFCQueues bounds BFC's physical queues per port: BFC (Goyal et al.)
// uses at most 64. netsim's egress ready mask has one bit per queue, and a
// packet holds its queue id in a byte.
const MaxBFCQueues = 64

// BFCConfig configures Backpressure Flow Control (Goyal et al., NSDI 2022):
// each ingress maintains a set of physical queues, flows are dynamically
// assigned to queues at enqueue time, and pause/resume feedback is scoped to
// one queue instead of the whole channel. A paused queue stops only the
// flows mapped to it — the victim flows of classic PFC head-of-line blocking
// keep moving through the other queues.
type BFCConfig struct {
	// Queues is the number of physical queues per channel.
	Queues int
	// XOFF pauses a queue when its occupancy reaches it; XON resumes at
	// or below it. Both are per-queue thresholds.
	XOFF units.Size
	XON  units.Size
}

// RecommendedBFC derives per-queue thresholds from the channel parameters:
// each queue gets an even share B/q of the buffer, of which XOFF leaves Cτ
// as the queue's own in-flight headroom, and XON sits one MTU below XOFF.
// queues must be positive. Buffers too small to give every queue a positive
// XON are rejected.
//
// The headroom is per queue because the overshoot is. A queue keeps
// receiving for one feedback latency τ after it reaches XOFF, so it can end
// up Cτ past it; while it waits for its QPAUSE the link keeps running, and
// once the pause lands the sender moves on to its next queue. q queues that
// pause one after another can each overshoot by Cτ, q·(XOFF + Cτ) in all, so
// one shared Cτ of headroom (XOFF = (B − Cτ)/q) overruns the buffer.
func RecommendedBFC(p Params, queues int) (BFCConfig, error) {
	headroom := units.BytesIn(p.Capacity, p.Tau)
	xoff := p.Buffer/units.Size(queues) - headroom
	xon := xoff - p.MTU
	if xon <= 0 {
		return BFCConfig{}, fmt.Errorf(
			"flowcontrol: buffer %v too small for BFC with %d queues: need more than queues·(Cτ + MTU) = %v",
			p.Buffer, queues, units.Size(queues)*(headroom+p.MTU))
	}
	return BFCConfig{Queues: queues, XOFF: xoff, XON: xon}, nil
}

// Validate reports an error for inconsistent thresholds. Its loss bound is
// q·(XOFF + Cτ) ≤ B: queues that pause one after another each take up to Cτ
// past XOFF before their QPAUSE lands (see RecommendedBFC), and the buffer
// must hold all of them at once.
func (c BFCConfig) Validate(p Params) error {
	q := c.Queues
	if q <= 0 {
		return fmt.Errorf("flowcontrol: BFC queues %d must be positive", q)
	}
	if c.XOFF <= 0 {
		return fmt.Errorf("flowcontrol: BFC XOFF %v must be positive", c.XOFF)
	}
	if c.XON <= 0 || c.XON > c.XOFF {
		return fmt.Errorf("flowcontrol: BFC XON %v outside (0, XOFF=%v]", c.XON, c.XOFF)
	}
	if total := units.Size(q) * (c.XOFF + units.BytesIn(p.Capacity, p.Tau)); total > p.Buffer {
		return fmt.Errorf("flowcontrol: %d queues at XOFF %v, each with Cτ headroom, exceed buffer %v",
			q, c.XOFF, p.Buffer)
	}
	return nil
}

// NewBFCQueues returns a BFC Factory with RecommendedBFC thresholds over the
// given queue count (<= 0 uses DefaultBFCQueues).
func NewBFCQueues(queues int) Factory {
	if queues <= 0 {
		queues = DefaultBFCQueues
	}
	return newBFC(queues, func(p Params) (BFCConfig, error) {
		cfg, err := RecommendedBFC(p, queues)
		if err != nil {
			return cfg, err
		}
		return cfg, cfg.Validate(p)
	})
}

func newBFC(queues int, resolve func(Params) (BFCConfig, error)) Factory {
	return func(env Env, chans int) Bank {
		return &bfcBank{env: env, cls: newClasses(chans, resolve), q: queues,
			txPaused: make([]bool, chans*queues), npaused: make([]int32, chans),
			qlen: make([]units.Size, chans*queues), rxPaused: make([]bool, chans*queues)}
	}
}

// bfcBank gates transmission per downstream queue: a queue is blocked while a
// QPAUSE for it is outstanding, everything else moves at line rate. Its
// receivers track per-queue ingress occupancy and emit QPAUSE/QRESUME around
// the per-queue thresholds, mirroring PFC's believed-state dedup so a queue
// bouncing inside (XON, XOFF) stays silent. Per-queue state of channel ch,
// queue i is at ch·q + i.
type bfcBank struct {
	env      Env
	cls      classes[BFCConfig]
	q        int
	txPaused []bool
	npaused  []int32 // per sender: how many of its queues are paused
	qlen     []units.Size
	rxPaused []bool // believed upstream state per queue
}

func (b *bfcBank) Wire(rx, tx int, p Params) error { return b.cls.wire(rx, tx, p) }

func (b *bfcBank) Start() {}

func (b *bfcBank) Queues() int { return b.q }

func (b *bfcBank) TrySend(tx, q int, _ units.Size) (bool, units.Time) {
	if b.txPaused[tx*b.q+q] {
		return false, units.Never // a QRESUME will kick us
	}
	return true, 0
}

func (b *bfcBank) OnSent(int, units.Size, units.Time) {}

func (b *bfcBank) OnFeedback(tx int, m Message) {
	if m.QueueID < 0 || m.QueueID >= b.q {
		return
	}
	paused := &b.txPaused[tx*b.q+m.QueueID]
	switch m.Kind {
	case KindQueuePause:
		if !*paused {
			*paused = true
			b.npaused[tx]++
		}
	case KindQueueResume:
		if *paused {
			*paused = false
			b.npaused[tx]--
		}
	}
}

// Rate reports line rate while any queue may send, zero when every queue is
// paused. Diagnostic only: the scheduler asks TrySend per backlogged queue.
func (b *bfcBank) Rate(tx int) units.Rate {
	if int(b.npaused[tx]) == b.q {
		return 0
	}
	return b.cls.params[b.cls.tx[tx]].Capacity
}

func (b *bfcBank) OnArrival(rx, q int, s, _ units.Size) {
	i := rx*b.q + q
	b.qlen[i] += s
	if !b.rxPaused[i] && b.qlen[i] >= b.cls.of[b.cls.rx[rx]].XOFF {
		b.rxPaused[i] = true
		b.env.Emit(rx, Message{Kind: KindQueuePause, QueueID: q})
	}
}

func (b *bfcBank) OnDeparture(rx, q int, s, _ units.Size) {
	i := rx*b.q + q
	b.qlen[i] -= s
	if b.qlen[i] < 0 {
		b.qlen[i] = 0
	}
	if b.rxPaused[i] && b.qlen[i] <= b.cls.of[b.cls.rx[rx]].XON {
		b.rxPaused[i] = false
		b.env.Emit(rx, Message{Kind: KindQueueResume, QueueID: q})
	}
}

func (b *bfcBank) Bound(int) (units.Size, *core.StageTable) { return 0, nil }

func (b *bfcBank) Limiters() []RateLimiter { return nil }
