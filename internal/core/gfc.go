// Package core implements the mathematics of Gentle Flow Control — the
// paper's primary contribution. It provides:
//
//   - the conceptual (continuous) mapping function from ingress queue length
//     to upstream sending rate (§4.1, Figure 4b);
//   - the multi-stage step mapping function of practical buffer-based GFC
//     (§4.2, Figure 6), with the stage construction R_k = C/2^k and
//     B_m − B_k = (B_m − B_0)/2^k derived from equations (1)–(5);
//   - the hold-and-wait–elimination bounds of Theorem 4.1 (conceptual GFC:
//     B_0 ≤ B_m − 4Cτ) and Theorem 5.1 (time-based GFC:
//     B_0 ≤ B_m − (√(τ/T)+1)²·CT);
//   - the feedback-delay model τ of §5.4 (equation 6); and
//   - the feedback bandwidth-overhead model of §4.2.
//
// Simulation lives elsewhere; everything here is closed-form and pure.
package core

import (
	"fmt"
	"math"

	"github.com/gfcsim/gfc/internal/units"
)

// Tau bounds the worst-case feedback latency τ of equation (6): the interval
// between the receiver generating a feedback message and the receiver
// perceiving the changed input rate.
//
//	τ ≤ 2·MTU/C + 2·t_w + t_r
//
// where the two MTU/C terms are the worst-case waits for an in-flight packet
// to finish (once before the message departs, once before the sender can
// retime its output), t_w is the one-way wire latency and t_r the sender's
// message-processing time (≤ 3 µs on commodity hardware, per Cisco [10]).
func Tau(c units.Rate, mtu units.Size, tw, tr units.Time) units.Time {
	return 2*units.TransmissionTime(mtu, c) + 2*tw + tr
}

// ConceptualB0Bound returns the largest activation threshold B_0 that
// Theorem 4.1 permits for conceptual GFC: B_0 = B_m − 4Cτ. A larger B_0
// risks the queue overshooting to B_m, which would stall the sender and
// reintroduce hold-and-wait.
func ConceptualB0Bound(bm units.Size, c units.Rate, tau units.Time) units.Size {
	return bm - 4*units.BytesIn(c, tau)
}

// TimeBasedB0Bound returns the largest B_0 Theorem 5.1 permits for
// time-based GFC with feedback period T: B_0 = B_m − (√(τ/T)+1)²·CT.
func TimeBasedB0Bound(bm units.Size, c units.Rate, tau, period units.Time) units.Size {
	if period <= 0 {
		panic("core: non-positive feedback period")
	}
	f := math.Sqrt(float64(tau)/float64(period)) + 1
	need := units.Size(math.Ceil(f * f * float64(units.BytesIn(c, period))))
	return bm - need
}

// BufferBasedB1Bound returns the largest first-stage threshold B_1 for
// buffer-based GFC: B_1 = B_m − 2Cτ (§5.4). It follows from Theorem 4.1 and
// the stage inequalities (1)–(5): the buffer above B_1 must absorb two
// feedback latencies' worth of line-rate arrivals.
func BufferBasedB1Bound(bm units.Size, c units.Rate, tau units.Time) units.Size {
	return bm - 2*units.BytesIn(c, tau)
}

// ContinuousMapping is the conceptual mapping function of Figure 4(b) and
// the rate law of time-based GFC's Rate Adjuster: line rate below B0, then a
// linear decrease that reaches zero at Bm.
type ContinuousMapping struct {
	C  units.Rate // link capacity
	B0 units.Size // activation threshold
	Bm units.Size // mapping ceiling (set to the buffer size B in practice)
}

// Rate maps an ingress queue length to the upstream sending rate.
func (m ContinuousMapping) Rate(q units.Size) units.Rate {
	switch {
	case q <= m.B0:
		return m.C
	case q >= m.Bm:
		return 0
	default:
		return m.C * units.Rate(m.Bm-q) / units.Rate(m.Bm-m.B0)
	}
}

// SteadyQueue returns the queue length at which the mapped rate equals the
// given draining rate — the stable point B_s the queue converges to under
// sustained congestion (e.g. 75 KB in the Figure 5 example, where the drain
// rate is C/2, B0=50KB, Bm=100KB).
func (m ContinuousMapping) SteadyQueue(drain units.Rate) units.Size {
	if drain >= m.C {
		return m.B0
	}
	if drain <= 0 {
		return m.Bm
	}
	return m.Bm - units.Size(float64(m.Bm-m.B0)*float64(drain)/float64(m.C))
}

// minStageLen is the stage length below which further stages are omitted:
// buffers are consumed in 8-bit units (§4.2), so stages shorter than one
// byte are meaningless.
const minStageLen = 1 * units.Byte

// StageTable is the multi-stage step mapping function of practical
// buffer-based GFC (Figure 6). Stage 0 covers queue lengths below B_1 at
// line rate; stage k (1 ≤ k ≤ N) starts at threshold B_k and maps to rate
// R_k = C/2^k. The rate never reaches zero, which is what eliminates
// hold-and-wait.
type StageTable struct {
	C          units.Rate
	Bm         units.Size
	thresholds []units.Size // thresholds[k-1] = B_k, ascending
	rates      []units.Rate // rates[k-1] = R_k = C / 2^k
}

// NewStageTable builds the stage table for capacity c, buffer ceiling bm and
// first threshold b1, with the paper's rate ratio R_k = R_{k−1}/2. It fails
// when the parameters are inconsistent; use BufferBasedB1Bound to pick a
// safe b1 for a given τ (the table itself does not know τ — safety is the
// caller's contract, and NewSafeStageTable enforces it).
func NewStageTable(c units.Rate, bm, b1 units.Size) (*StageTable, error) {
	return NewStageTableRatio(c, bm, b1, 0.5)
}

// NewStageTableRatio generalises the stage construction to an arbitrary
// per-stage rate ratio r ∈ (0, 3/4]: R_k = r·R_{k−1} and, per equation (2),
// B_k = B_m − (B_m − B_1)·r^(k−1). Equation (3) derives r ≤ 3/4 from
// Theorem 4.1; the paper selects r = 1/2 (equation 4). The corresponding
// stage-safety requirement (equation 1) becomes B_1 ≤ B_m − Cτ/(1−r).
func NewStageTableRatio(c units.Rate, bm, b1 units.Size, ratio float64) (*StageTable, error) {
	if c <= 0 {
		return nil, fmt.Errorf("core: capacity %v must be positive", c)
	}
	if b1 <= 0 || b1 >= bm {
		return nil, fmt.Errorf("core: need 0 < B1 (%v) < Bm (%v)", b1, bm)
	}
	// The negated form rejects NaN (every comparison with NaN is false,
	// so `ratio <= 0` would wave it through).
	if !(ratio > 0 && ratio <= 0.75) {
		return nil, fmt.Errorf("core: stage ratio %v outside (0, 3/4] (equation 3)", ratio)
	}
	if float64(c)*ratio < 1 {
		return nil, fmt.Errorf("core: capacity %v too small for a staged mapping (first stage rate would round below 1 b/s)", c)
	}
	t := &StageTable{C: c, Bm: bm}
	span := float64(bm - b1)
	scale := 1.0 // r^(k−1)
	rate := float64(c)
	for k := 1; ; k++ {
		thr := bm - units.Size(span*scale)
		rate *= ratio
		t.thresholds = append(t.thresholds, thr)
		t.rates = append(t.rates, units.Rate(rate))
		// Stop once the next stage would be shorter than a byte — or its
		// rate would round to zero, which would turn the gentle floor
		// into a full stop (the very failure mode GFC exists to avoid).
		next := bm - units.Size(span*scale*ratio)
		if next-thr < minStageLen || k >= 100 || rate*ratio < 1 {
			break
		}
		scale *= ratio
	}
	return t, nil
}

// NewSafeStageTable builds a stage table whose B_1 honours the Theorem 4.1
// derived bound B_1 ≤ B_m − 2Cτ, returning an error otherwise.
func NewSafeStageTable(c units.Rate, bm, b1 units.Size, tau units.Time) (*StageTable, error) {
	if bound := BufferBasedB1Bound(bm, c, tau); b1 > bound {
		return nil, fmt.Errorf("core: B1 %v exceeds safe bound %v (Bm−2Cτ, τ=%v)", b1, bound, tau)
	}
	return NewStageTable(c, bm, b1)
}

// Stages reports the number of rate-limited stages N.
func (t *StageTable) Stages() int { return len(t.thresholds) }

// Threshold returns B_k for 1 ≤ k ≤ N.
func (t *StageTable) Threshold(k int) units.Size { return t.thresholds[k-1] }

// StageRate returns R_k for stage k; stage 0 is line rate.
func (t *StageTable) StageRate(k int) units.Rate {
	if k <= 0 {
		return t.C
	}
	if k > len(t.rates) {
		k = len(t.rates)
	}
	return t.rates[k-1]
}

// StageFor maps an instantaneous queue length to its stage index: 0 when
// q < B_1, else the largest k with B_k ≤ q.
func (t *StageTable) StageFor(q units.Size) int {
	// Linear scan is fine: N ≤ 20 for any practical link speed, and the
	// common case (uncongested, q < B_1) exits immediately.
	stage := 0
	for k, thr := range t.thresholds {
		if q < thr {
			break
		}
		stage = k + 1
	}
	return stage
}

// RateFor maps a queue length directly to the sending rate.
func (t *StageTable) RateFor(q units.Size) units.Rate {
	return t.StageRate(t.StageFor(q))
}

// OverheadModel quantifies the feedback bandwidth GFC consumes (§4.2).
type OverheadModel struct {
	MessageSize units.Size // feedback frame size m (64 B on Ethernet)
	Tau         units.Time // feedback latency τ
}

// WorstCase returns the transient worst-case feedback bandwidth m/τ — one
// message per τ, e.g. 69 Mb/s (0.69% of 10GbE) at m=64B, τ=7.4µs.
func (o OverheadModel) WorstCase() units.Rate {
	return units.RateOf(o.MessageSize, o.Tau)
}

// Steady returns the steady-state worst-case feedback bandwidth m/(8τ),
// e.g. 8.6 Mb/s (0.086%) at 10GbE.
func (o OverheadModel) Steady() units.Rate {
	return units.RateOf(o.MessageSize, 8*o.Tau)
}
