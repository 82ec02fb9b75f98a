package flowcontrol

import (
	"math"

	"github.com/gfcsim/gfc/internal/units"
)

// RateLimiter models the per-queue egress rate limiter of §5.3. Hardware
// keeps three registers: R_l records the transmission time of the last
// packet, R_r the assigned queue rate, and R_c a countdown started when a
// packet finishes; the queue may transmit again once R_c reaches zero, where
//
//	R_c = (C − R_r) / R_r · R_l
//
// so the long-run rate is exactly R_r. The Go model recomputes the countdown
// from the current R_r on every query, which mirrors firmware resetting R_c
// when the assigned rate changes — without it, a rate step from C/2^16 back
// up to C would still serve out a countdown tens of milliseconds long.
//
// DefaultMinRate reflects the hardware granularity floor discussed in §7:
// assigned rates below it are clamped up, which keeps the limiter from ever
// parking a queue forever.
//
// A limiter may be held shut: NextAllowed is then Never until the holder
// opens it (time-based GFC before its first credit advertisement).
type RateLimiter struct {
	Capacity units.Rate

	rate    units.Rate
	lastEnd units.Time // when the previous packet finished serialising; Never while held
	lastDur units.Time // R_l: how long it occupied the wire
	// blocks counts the 64-byte blocks of every packet OnPacket recorded:
	// the FCTBS register time-based GFC derives the remaining downstream
	// buffer from. The other schemes never read it.
	blocks int64
}

// DefaultSlack is the limiter's conservatism: the countdown is stretched by
// (1+DefaultSlack), so the achieved rate sits slightly below the assigned R_r
// (except at line rate, which is unpaced). Hardware limiters have exactly
// this property — the R_c register counts in whole clock ticks and
// configurations round toward "not more than R_r".
//
// The slack matters behaviourally: inside one stage of the GFC step mapping,
// arrival at R_r against a drain of R_r is neutrally stable, and packet-level
// beats only ever pump bytes in, slowly ratcheting coupled CBD queues toward
// the buffer ceiling. A slightly conservative limiter makes drain exceed
// arrival so queues restore to the stage boundary instead.
const DefaultSlack float64 = 0.01

// DefaultMinRate is the 8 Kb/s minimum rate unit of commodity rate limiters:
// the floor of every GFC rate mapping, in the packet engine, the fluid solver
// and the analytic model alike.
const DefaultMinRate = 8 * units.Kbps

// NewRateLimiter returns a limiter initially assigned full line rate.
func NewRateLimiter(capacity units.Rate) *RateLimiter {
	return &RateLimiter{Capacity: capacity, rate: capacity}
}

// SetRate assigns R_r. Rates above capacity clamp to capacity; rates below
// DefaultMinRate clamp to it (the granularity floor — GFC never assigns zero,
// but defensive clamping keeps the invariant obvious).
func (rl *RateLimiter) SetRate(r units.Rate) {
	switch {
	case r > rl.Capacity:
		r = rl.Capacity
	case r < DefaultMinRate:
		r = DefaultMinRate
	}
	rl.rate = r
}

// Rate reports the assigned rate R_r.
func (rl *RateLimiter) Rate() units.Rate { return rl.rate }

// NextAllowed reports the earliest time the next packet may start, given the
// current assigned rate. Before any transmission it is time zero (Never while
// held).
func (rl *RateLimiter) NextAllowed() units.Time {
	if rl.lastDur == 0 || rl.rate >= rl.Capacity {
		return rl.lastEnd
	}
	extra := float64(rl.lastDur) * float64(rl.Capacity-rl.rate) / float64(rl.rate) * (1 + DefaultSlack)
	if extra >= float64(math.MaxInt64)-float64(rl.lastEnd) {
		return units.Never
	}
	return rl.lastEnd + units.Time(extra)
}

// OnSent records that a packet finished serialising at end after occupying
// the wire for dur, starting the R_c countdown.
func (rl *RateLimiter) OnSent(end units.Time, dur units.Time) {
	rl.lastEnd = end
	rl.lastDur = dur
}

// OnPacket is OnSent for a packet of size s, which it also counts in blocks.
func (rl *RateLimiter) OnPacket(end, dur units.Time, s units.Size) {
	rl.OnSent(end, dur)
	rl.blocks += Blocks(s)
}

// Gate is Sender.TrySend of a sender gated by rl alone, at time now: ok when
// the next packet may start, else the time it may.
func (rl *RateLimiter) Gate(now units.Time) (ok bool, wake units.Time) {
	if next := rl.NextAllowed(); next > now {
		return false, next
	}
	return true, 0
}
