package flowcontrol

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/units"
)

// GFCTimeConfig configures time-based GFC (§5.2). The Message Generator is
// CBFC's, completely unmodified: a periodic credit advertisement every T.
// Only the Rate Adjuster changes — instead of gating on credit exhaustion it
// derives the remaining downstream buffer from FCCL − FCTBS and maps it
// through the continuous function, with the Theorem 5.1 threshold
// B0 ≤ Bm − (√(τ/T)+1)²·CT.
type GFCTimeConfig struct {
	// Period is the feedback interval T; zero means the InfiniBand
	// recommendation for the link capacity.
	Period units.Time
	// B0 is the activation threshold; zero derives the Theorem 5.1 safe
	// maximum.
	B0 units.Size
	// Bm is the mapping ceiling; zero defaults to the buffer size minus
	// four MTUs of headroom, which absorbs the DefaultMinRate floor's
	// residual trickle when a downstream drain stops completely.
	Bm units.Size
}

// Resolve returns c with the thresholds NewGFCTime installs on a channel with
// parameters p filled in — Period (default: the InfiniBand recommendation for
// the link capacity), Bm (default: the buffer minus the OccupancyCeiling
// headroom) and B0 (default: the Theorem 5.1 safe maximum) — and an error
// unless 0 < B0 < Bm. The values are returned even then; see
// GFCBufferConfig.Resolve.
func (c GFCTimeConfig) Resolve(p Params) (GFCTimeConfig, error) {
	if c.Period <= 0 {
		c.Period = RecommendedCBFCPeriod(p.Capacity)
	}
	if c.Bm == 0 {
		c.Bm = p.Buffer - ceilingHeadroom(p.MTU)
	}
	if c.B0 == 0 {
		c.B0 = core.TimeBasedB0Bound(c.Bm, p.Capacity, p.Tau, c.Period)
	}
	if c.B0 <= 0 || c.B0 >= c.Bm {
		return c, fmt.Errorf("flowcontrol: time-based GFC needs 0 < B0 (%v) < Bm (%v); buffer too small for τ=%v, T=%v",
			c.B0, c.Bm, p.Tau, c.Period)
	}
	return c, nil
}

// NewGFCTime returns a Factory for time-based GFC.
//
// Faithful to §5.2, the Rate Adjuster fully replaces CBFC's credit gate:
// FCCL/FCTBS are tracked only to derive the remaining downstream buffer, and
// transmission is gated purely by the rate limiter. The rate therefore never
// reaches zero — the hold-and-wait elimination — at the cost of a small
// headroom requirement above Bm (see GFCTimeConfig.Bm).
func NewGFCTime(cfg GFCTimeConfig) Factory {
	return func(p Params, env Env) (Controller, error) {
		if err := p.Validate(); err != nil {
			return Controller{}, err
		}
		cfg, err := cfg.Resolve(p)
		if err != nil {
			return Controller{}, err
		}
		m := core.ContinuousMapping{C: p.Capacity, B0: cfg.B0, Bm: cfg.Bm}
		return Controller{
			Sender:   &gfcTimeSender{rl: *NewRateLimiter(p.Capacity), clock: env.Clock(), mapping: m, bm: cfg.Bm},
			Receiver: &cbfcReceiver{p: p, cfg: CBFCConfig{Period: cfg.Period}, env: env},
		}, nil
	}
}

type gfcTimeSender struct {
	rl    RateLimiter // by value and leading, as in gfcBufferSender
	clock Clock

	fctbs int64
	fccl  int64
	init  bool

	mapping core.ContinuousMapping
	bm      units.Size
}

func (s *gfcTimeSender) TrySend(sz units.Size) (bool, units.Time) {
	if !s.init {
		return false, units.Never
	}
	next := s.rl.NextAllowed()
	if now := s.clock.Now(); next > now {
		return false, next
	}
	return true, 0
}

func (s *gfcTimeSender) OnSent(sz units.Size, dur units.Time) {
	s.fctbs += Blocks(sz)
	s.rl.OnSent(s.clock.Now(), dur)
}

func (s *gfcTimeSender) OnFeedback(m Message) {
	if m.Kind != KindCredit {
		return
	}
	s.init = true
	if m.FCCL > s.fccl {
		s.fccl = m.FCCL
	}
	// Remaining downstream buffer in bytes; occupancy proxy q = Bm − rem.
	rem := units.Size(s.fccl-s.fctbs) * CreditBlock
	if rem < 0 {
		rem = 0
	}
	q := s.bm - rem
	if q < 0 {
		q = 0
	}
	s.rl.SetRate(s.mapping.Rate(q))
}

func (s *gfcTimeSender) Rate() units.Rate {
	if !s.init {
		return 0
	}
	return s.rl.Rate()
}

// Ceiling returns the mapping ceiling B_m (Bounded).
func (s *gfcTimeSender) Ceiling() units.Size { return s.bm }
