package flowcontrol

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/units"
)

// CreditBlock is the InfiniBand flow-control granularity: credits are
// counted in 64-byte blocks.
const CreditBlock = 64 * units.Byte

// Blocks reports the number of credit blocks a packet of size s consumes
// (rounded up). Every packet consumes at least one block: a header-only
// (zero-payload) packet still occupies buffer and wire, and charging it
// nothing would let a sender transmit unbounded zero-size packets with no
// credit.
func Blocks(s units.Size) int64 {
	if s <= 0 {
		return 1
	}
	return int64((s + CreditBlock - 1) / CreditBlock)
}

// CBFCConfig configures credit-based flow control (InfiniBand §7.9 /
// §2.2.2 of the paper).
type CBFCConfig struct {
	// Period is the feedback interval T. The InfiniBand recommendation
	// is the time to transmit 65535 bytes [40].
	Period units.Time
}

// RecommendedCBFCPeriod returns the IB-recommended feedback period for a
// link of the given capacity: the transmission time of 65535 bytes (52.4 µs
// at 10 Gb/s, matching the paper's testbed).
func RecommendedCBFCPeriod(c units.Rate) units.Time {
	return units.TransmissionTime(65535*units.Byte, c)
}

// Validate reports an error for inconsistent configuration.
func (c CBFCConfig) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("flowcontrol: CBFC period %v must be positive", c.Period)
	}
	return nil
}

// NewCBFC returns a Factory for credit-based flow control.
//
// The receiver keeps an Adjusted Blocks Received (ABR) register — blocks
// received adjusted for buffer release, i.e. blocks that have left the
// ingress buffer — and periodically advertises the Flow Control Credit Limit
// FCCL = ABR + allocated buffer blocks. The sender tracks Flow Control Total
// Blocks Sent (FCTBS) and may transmit only while FCTBS + blocks(pkt) ≤
// FCCL. The sender therefore never has more data outstanding than the
// receiver's free buffer, which guarantees zero loss; and once the buffer
// fills without draining, FCCL stops advancing and the sender ceases — the
// hold-and-wait state the paper identifies.
func NewCBFC(cfg CBFCConfig) Factory {
	return func(env Env, chans int) Bank {
		return newCreditBank(env, chans, false, func(p Params) (creditClass, error) {
			return creditClass{period: cfg.Period, blocks: int64(p.Buffer / CreditBlock)}, cfg.Validate()
		})
	}
}

// creditBank is CBFC and, with timeBased, time-based GFC (§5.2), whose
// Message Generator is CBFC's unmodified: the two share the receiver — the
// ABR register and the periodic advertisement — and differ in the sender's
// gate. Time-based GFC's is its RateLimiter alone, held shut until the
// first advertisement, and the limiter's block count is its FCTBS.
type creditBank struct {
	limiters // time-based GFC only; rl is nil under CBFC
	cls      classes[creditClass]
	abr      []int64 // per receiver: blocks released from the ingress buffer since link init
	tx       []creditSender
	tick     func(int32) // the periodic advertisement, one handler for every receiver
}

// creditClass is what a credit bank resolves once per channel class.
type creditClass struct {
	period  units.Time             // the advertisement period T
	blocks  int64                  // the ingress buffer allocation, in credit blocks
	mapping core.ContinuousMapping // time-based GFC's rate mapping
}

type creditSender struct {
	fctbs int64 // total blocks sent since link init (CBFC)
	fccl  int64 // latest credit limit received
	init  bool  // a credit message has arrived
}

func newCreditBank(env Env, chans int, timeBased bool, resolve func(Params) (creditClass, error)) *creditBank {
	b := &creditBank{limiters: limiters{env: env}, cls: newClasses(chans, resolve),
		abr: make([]int64, chans), tx: make([]creditSender, chans)}
	if timeBased {
		b.rl = make([]RateLimiter, chans)
	}
	b.tick = func(ch int32) {
		b.advertise(int(ch))
		b.env.After(b.cls.of[b.cls.rx[ch]].period, b.tick, ch)
	}
	return b
}

func (b *creditBank) Wire(rx, tx int, p Params) error {
	if err := b.cls.wire(rx, tx, p); err != nil {
		return err
	}
	if b.rl != nil {
		// Held until the first credit advertisement.
		b.rl[tx] = RateLimiter{Capacity: p.Capacity, rate: p.Capacity, lastEnd: units.Never}
	}
	return nil
}

func (b *creditBank) Start() {
	for rx, k := range b.cls.rx {
		if k != 0 {
			b.advertise(rx)
			b.env.After(b.cls.of[k].period, b.tick, int32(rx))
		}
	}
}

func (b *creditBank) advertise(rx int) {
	b.env.Emit(rx, Message{Kind: KindCredit, FCCL: b.abr[rx] + b.cls.of[b.cls.rx[rx]].blocks})
}

func (b *creditBank) TrySend(tx, q int, sz units.Size) (bool, units.Time) {
	s := &b.tx[tx]
	if !s.init {
		// Link-init grace: the first credit advertisement is in
		// flight; IB initialises credits at link bring-up, which the
		// receiver's Start() models. Hold until it lands.
		return false, units.Never
	}
	if b.rl != nil {
		return b.limiters.TrySend(tx, q, sz)
	}
	if s.fctbs+Blocks(sz) <= s.fccl {
		return true, 0
	}
	return false, units.Never // next periodic credit update will kick us
}

func (b *creditBank) OnSent(tx int, sz units.Size, dur units.Time) {
	if b.rl != nil {
		b.limiters.OnSent(tx, sz, dur)
		return
	}
	b.tx[tx].fctbs += Blocks(sz)
}

func (b *creditBank) OnFeedback(tx int, m Message) {
	if m.Kind != KindCredit {
		return
	}
	s := &b.tx[tx]
	if b.rl != nil && !s.init {
		b.rl[tx].lastEnd = 0 // open the hold: nothing has been sent
	}
	s.init = true
	// FCCL is monotone in a loss-free control channel; keep the max so a
	// reordered stale advertisement cannot revoke credit.
	if m.FCCL > s.fccl {
		s.fccl = m.FCCL
	}
	if b.rl == nil {
		return
	}
	// Time-based GFC: remaining downstream buffer in bytes; occupancy
	// proxy q = Bm − rem.
	mapping := &b.cls.of[b.cls.tx[tx]].mapping
	rem := units.Size(s.fccl-b.rl[tx].blocks) * CreditBlock
	if rem < 0 {
		rem = 0
	}
	q := mapping.Bm - rem
	if q < 0 {
		q = 0
	}
	b.rl[tx].SetRate(mapping.Rate(q))
}

// Rate reports, under CBFC, line rate while at least a full packet's worth
// of credit remains and zero when effectively exhausted (a residual of less
// than one MTU cannot move anything); under time-based GFC the limiter's
// rate once the link is initialised.
func (b *creditBank) Rate(tx int) units.Rate {
	s := &b.tx[tx]
	switch p := &b.cls.params[b.cls.tx[tx]]; {
	case !s.init:
		return 0
	case b.rl != nil:
		return b.rl[tx].Rate()
	case units.Size(s.fccl-s.fctbs)*CreditBlock >= p.MTU:
		return p.Capacity
	}
	return 0
}

func (b *creditBank) OnArrival(int, int, units.Size, units.Size) {}

func (b *creditBank) OnDeparture(rx, _ int, s, _ units.Size) {
	b.abr[rx] += Blocks(s)
}

// Bound reports time-based GFC's mapping ceiling; CBFC has none.
func (b *creditBank) Bound(rx int) (units.Size, *core.StageTable) {
	return b.cls.of[b.cls.rx[rx]].mapping.Bm, nil
}
