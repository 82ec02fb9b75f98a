package flowcontrol

import (
	"fmt"

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
	return func(p Params, env Env) (Controller, error) {
		if err := p.Validate(); err != nil {
			return Controller{}, err
		}
		if err := cfg.Validate(); err != nil {
			return Controller{}, err
		}
		return Controller{
			Sender:   &cbfcSender{p: p},
			Receiver: &cbfcReceiver{p: p, cfg: cfg, env: env},
		}, nil
	}
}

type cbfcSender struct {
	p     Params
	fctbs int64 // total blocks sent since link init
	fccl  int64 // latest credit limit received
	init  bool  // a credit message has arrived
}

func (s *cbfcSender) TrySend(sz units.Size) (bool, units.Time) {
	if !s.init {
		// Link-init grace: the first credit advertisement is in
		// flight; IB initialises credits at link bring-up, which the
		// receiver's Start() models. Hold until it lands.
		return false, units.Never
	}
	if s.fctbs+Blocks(sz) <= s.fccl {
		return true, 0
	}
	return false, units.Never // next periodic credit update will kick us
}

func (s *cbfcSender) OnSent(sz units.Size, _ units.Time) {
	s.fctbs += Blocks(sz)
}

func (s *cbfcSender) OnFeedback(m Message) {
	if m.Kind != KindCredit {
		return
	}
	s.init = true
	// FCCL is monotone in a loss-free control channel; keep the max so a
	// reordered stale advertisement cannot revoke credit.
	if m.FCCL > s.fccl {
		s.fccl = m.FCCL
	}
}

// Rate reports line rate while at least a full packet's worth of credit
// remains, zero when effectively exhausted (a residual of less than one MTU
// cannot move anything).
func (s *cbfcSender) Rate() units.Rate {
	if s.init && units.Size(s.fccl-s.fctbs)*CreditBlock >= s.p.MTU {
		return s.p.Capacity
	}
	return 0
}

type cbfcReceiver struct {
	p    Params
	cfg  CBFCConfig
	env  Env
	abr  int64       // blocks released from the ingress buffer since link init
	tick func(int32) // the periodic advertisement, bound once in Start
}

func (r *cbfcReceiver) Start() {
	r.advertise()
	r.tick = func(int32) {
		r.advertise()
		r.env.After(r.cfg.Period, r.tick, 0)
	}
	r.env.After(r.cfg.Period, r.tick, 0)
}

func (r *cbfcReceiver) advertise() {
	fccl := r.abr + int64(r.p.Buffer/CreditBlock)
	r.env.Emit(Message{Kind: KindCredit, FCCL: fccl})
}

func (r *cbfcReceiver) OnArrival(_, _ units.Size) {}

func (r *cbfcReceiver) OnDeparture(s, _ units.Size) {
	r.abr += Blocks(s)
}
