package flowcontrol

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/core"
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
// that decision is made: the bank, the fluid compiler and the analytic
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
// them per channel class (see Resolve).
func NewPFC(cfg PFCConfig) Factory {
	return func(env Env, chans int) Bank {
		return &pfcBank{env: env, cls: newClasses(chans, cfg.Resolve),
			rxPaused: make([]bool, chans), txPaused: make([]bool, chans)}
	}
}

// pfcBank: a sender is paused or not, and a receiver remembers the state it
// believes its upstream is in.
type pfcBank struct {
	env      Env
	cls      classes[PFCConfig]
	rxPaused []bool
	txPaused []bool
}

func (b *pfcBank) Wire(rx, tx int, p Params) error { return b.cls.wire(rx, tx, p) }

func (b *pfcBank) Start() {}

func (b *pfcBank) Queues() int { return 0 }

func (b *pfcBank) TrySend(tx, _ int, _ units.Size) (bool, units.Time) {
	if b.txPaused[tx] {
		return false, units.Never // a RESUME will kick us
	}
	return true, 0
}

func (b *pfcBank) OnSent(int, units.Size, units.Time) {}

func (b *pfcBank) OnFeedback(tx int, m Message) {
	switch m.Kind {
	case KindPause:
		b.txPaused[tx] = true
	case KindResume:
		b.txPaused[tx] = false
	}
}

func (b *pfcBank) Rate(tx int) units.Rate {
	if b.txPaused[tx] {
		return 0
	}
	return b.cls.params[b.cls.tx[tx]].Capacity
}

func (b *pfcBank) OnArrival(rx, _ int, _, occ units.Size) {
	if !b.rxPaused[rx] && occ >= b.cls.of[b.cls.rx[rx]].XOFF {
		b.rxPaused[rx] = true
		b.env.Emit(rx, Message{Kind: KindPause})
	}
}

func (b *pfcBank) OnDeparture(rx, _ int, _, occ units.Size) {
	if b.rxPaused[rx] && occ <= b.cls.of[b.cls.rx[rx]].XON {
		b.rxPaused[rx] = false
		b.env.Emit(rx, Message{Kind: KindResume})
	}
}

func (b *pfcBank) Bound(int) (units.Size, *core.StageTable) { return 0, nil }

func (b *pfcBank) Limiters() []RateLimiter { return nil }
