package flowcontrol

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/units"
)

// PFCConfig holds the Priority Flow Control thresholds (IEEE 802.1Qbb,
// §2.2.1): the receiver emits PAUSE when its ingress queue reaches XOFF and
// RESUME when it falls to or below XON. Headroom above XOFF absorbs the
// ≤ Cτ of data in flight before the PAUSE takes effect.
type PFCConfig struct {
	XOFF units.Size
	XON  units.Size
}

// RecommendedPFC derives thresholds from the buffer size, capacity and
// feedback latency: XOFF leaves Cτ headroom (the 802.1Qbb minimum) and XON
// sits 2 MTU below XOFF, the interval recommended in DCQCN deployments [59].
// A buffer of Cτ + 2·MTU or less cannot host both the headroom and a
// positive XON, so it is rejected here instead of producing a non-positive
// threshold that only fails later in Validate.
func RecommendedPFC(p Params) (PFCConfig, error) {
	headroom := units.BytesIn(p.Capacity, p.Tau)
	xoff := p.Buffer - headroom
	xon := xoff - 2*p.MTU
	if xon <= 0 {
		return PFCConfig{}, fmt.Errorf(
			"flowcontrol: buffer %v too small for PFC: need more than Cτ+2·MTU = %v",
			p.Buffer, headroom+2*p.MTU)
	}
	return PFCConfig{XOFF: xoff, XON: xon}, nil
}

// Validate reports an error for inconsistent thresholds.
func (c PFCConfig) Validate(p Params) error {
	if c.XOFF <= 0 || c.XOFF > p.Buffer {
		return fmt.Errorf("flowcontrol: XOFF %v outside (0, %v]", c.XOFF, p.Buffer)
	}
	if c.XON <= 0 || c.XON > c.XOFF {
		return fmt.Errorf("flowcontrol: XON %v outside (0, XOFF=%v]", c.XON, c.XOFF)
	}
	if !c.CoversInflight(p) {
		return fmt.Errorf("flowcontrol: headroom %v below Cτ=%v; PAUSE cannot guarantee losslessness",
			p.Buffer-c.XOFF, units.BytesIn(p.Capacity, p.Tau))
	}
	return nil
}

// CoversInflight reports whether the buffer above XOFF absorbs the Cτ still
// in flight when a PAUSE is emitted — PFC's losslessness condition.
func (c PFCConfig) CoversInflight(p Params) bool {
	return p.Buffer-c.XOFF >= units.BytesIn(p.Capacity, p.Tau)
}

// Resolve returns the thresholds NewPFC installs on a channel with parameters
// p — c itself, or RecommendedPFC's derivation when XOFF is unset — and their
// validity for p. This is the only place
// that decision is made: the factory, the fluid compiler and the analytic
// predictor all call it.
func (c PFCConfig) Resolve(p Params) (PFCConfig, error) {
	if c.XOFF == 0 {
		rec, err := RecommendedPFC(p)
		if err != nil {
			return c, err
		}
		c.XOFF, c.XON = rec.XOFF, rec.XON
	}
	return c, c.Validate(p)
}

// NewPFC returns a Factory for PFC with cfg's thresholds; a zero XOFF derives
// them per channel (see Resolve).
func NewPFC(cfg PFCConfig) Factory {
	return func(p Params, env Env) (Controller, error) {
		if err := p.Validate(); err != nil {
			return Controller{}, err
		}
		cfg, err := cfg.Resolve(p)
		if err != nil {
			return Controller{}, err
		}
		return Controller{
			Sender:   &pfcSender{capacity: p.Capacity},
			Receiver: &pfcReceiver{cfg: cfg, env: env},
		}, nil
	}
}

type pfcSender struct {
	capacity units.Rate
	paused   bool
}

func (s *pfcSender) TrySend(units.Size) (bool, units.Time) {
	if s.paused {
		return false, units.Never // a RESUME will kick us
	}
	return true, 0
}

func (s *pfcSender) OnSent(units.Size, units.Time) {}

func (s *pfcSender) OnFeedback(m Message) {
	switch m.Kind {
	case KindPause:
		s.paused = true
	case KindResume:
		s.paused = false
	}
}

func (s *pfcSender) Rate() units.Rate {
	if s.paused {
		return 0
	}
	return s.capacity
}

type pfcReceiver struct {
	cfg    PFCConfig
	env    Env
	paused bool // believed upstream state
}

func (r *pfcReceiver) Start() {}

func (r *pfcReceiver) OnArrival(_, q units.Size) {
	if !r.paused && q >= r.cfg.XOFF {
		r.paused = true
		r.env.Emit(Message{Kind: KindPause})
	}
}

func (r *pfcReceiver) OnDeparture(_, q units.Size) {
	if r.paused && q <= r.cfg.XON {
		r.paused = false
		r.env.Emit(Message{Kind: KindResume})
	}
}
