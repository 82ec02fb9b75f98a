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
	return func(env Env, chans int) Bank {
		return newCreditBank(env, chans, true, func(p Params) (creditClass, error) {
			c, err := cfg.Resolve(p)
			return creditClass{period: c.Period, blocks: int64(p.Buffer / CreditBlock),
				mapping: core.ContinuousMapping{C: p.Capacity, B0: c.B0, Bm: c.Bm}}, err
		})
	}
}
