package flowcontrol

import (
	"fmt"
	"math"

	"github.com/gfcsim/gfc/internal/units"
)

// PFCConfig holds the Priority Flow Control thresholds (IEEE 802.1Qbb,
// §2.2.1): the receiver emits PAUSE when its ingress queue reaches XOFF and
// RESUME when it falls to or below XON. Headroom above XOFF absorbs the
// ≤ Cτ of data in flight before the PAUSE takes effect.
type PFCConfig struct {
	XOFF units.Size
	XON  units.Size
	// PauseQuanta, when positive, models the real 802.1Qbb timer: a
	// PAUSE lasts PauseQuanta × 512 bit-times and then expires, and the
	// receiver refreshes it at half-life while the queue remains above
	// XON. Zero keeps the simpler pause-until-RESUME model (equivalent
	// to a receiver that always refreshes in time, which is how
	// deadlocks persist in practice).
	//
	// A finite timer without refresh would self-heal deadlocks — that
	// behaviour is exactly what vendor "PFC watchdog" features exploit;
	// set Refresh to false to model it.
	PauseQuanta int
	// Refresh controls whether the receiver re-arms an expiring pause
	// while still congested. Only meaningful with PauseQuanta > 0;
	// default true (set NoRefresh to disable).
	NoRefresh bool
}

// quantaDuration converts pause quanta to time at capacity c: one quantum
// is 512 bit-times, rounded half-up to the nanosecond clock. Truncation is
// not good enough at high capacities — at 400 Gb/s a quantum is 1.28 ns and
// every refresh cycle would otherwise shave the fraction off again.
func quantaDuration(q int, c units.Rate) units.Time {
	return units.Time(math.Round(float64(q) * 512 / float64(c) * 1e9))
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
// p — c itself, or RecommendedPFC's derivation when XOFF is unset (the timer
// settings carry over) — and their validity for p. This is the only place
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
			Sender:   &pfcSender{p: p, cfg: cfg, clock: env.Clock()},
			Receiver: &pfcReceiver{p: p, cfg: cfg, env: env},
		}, nil
	}
}

// NewPFCDefault returns a PFC Factory with RecommendedPFC thresholds.
func NewPFCDefault() Factory { return NewPFC(PFCConfig{}) }

type pfcSender struct {
	p     Params
	cfg   PFCConfig
	clock Clock

	paused bool
	// expiry is when a quanta-limited pause runs out; Never for the
	// pause-until-RESUME model.
	expiry units.Time
}

func (s *pfcSender) isPaused() bool {
	if !s.paused {
		return false
	}
	if s.cfg.PauseQuanta > 0 && s.clock.Now() >= s.expiry {
		s.paused = false // timer ran out without a refresh
	}
	return s.paused
}

func (s *pfcSender) TrySend(units.Size) (bool, units.Time) {
	if s.isPaused() {
		if s.cfg.PauseQuanta > 0 {
			return false, s.expiry
		}
		return false, units.Never // a RESUME will kick us
	}
	return true, 0
}

func (s *pfcSender) OnSent(units.Size, units.Time) {}

func (s *pfcSender) OnFeedback(m Message) {
	switch m.Kind {
	case KindPause:
		s.paused = true
		if s.cfg.PauseQuanta > 0 {
			s.expiry = s.clock.Now() + quantaDuration(s.cfg.PauseQuanta, s.p.Capacity)
		} else {
			s.expiry = units.Never
		}
	case KindResume:
		s.paused = false
	}
}

func (s *pfcSender) Rate() units.Rate {
	if s.isPaused() {
		return 0
	}
	return s.p.Capacity
}

type pfcReceiver struct {
	p      Params
	cfg    PFCConfig
	env    Env
	paused bool // believed upstream state
	lastQ  units.Size
}

func (r *pfcReceiver) Start() {}

func (r *pfcReceiver) pause() {
	r.paused = true
	r.env.Emit(Message{Kind: KindPause, Priority: r.p.Priority})
	if r.cfg.PauseQuanta > 0 && !r.cfg.NoRefresh {
		// Re-arm at half-life while the queue has not drained to XON,
		// as real receivers do.
		r.env.After(quantaDuration(r.cfg.PauseQuanta, r.p.Capacity)/2, func() {
			if r.paused && r.lastQ > r.cfg.XON {
				r.pause()
			}
		})
	}
}

func (r *pfcReceiver) OnArrival(_, q units.Size) {
	r.lastQ = q
	if !r.paused && q >= r.cfg.XOFF {
		r.pause()
	}
}

func (r *pfcReceiver) OnDeparture(_, q units.Size) {
	r.lastQ = q
	if r.paused && q <= r.cfg.XON {
		r.paused = false
		r.env.Emit(Message{Kind: KindResume, Priority: r.p.Priority})
	}
}
