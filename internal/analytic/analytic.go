// Package analytic computes per-topology predictions for a compiled
// scenario and turns them into the network-wide bounds the metrics layer
// asserts at end of run (metrics.NetworkBounds / Registry.CheckNetwork).
//
// Three families of results are combined (DESIGN.md §3.8):
//
//   - Bouillard-style stability analysis over the cyclic-buffer-dependency
//     graph: a scheme whose per-channel service rate stays positive on every
//     channel of every dependency cycle cannot reach a circular-wait
//     deadlock. GFC's mapping functions never reach zero rate (the stage
//     table's deepest rate, or the time-based minimum rate), so the GFC
//     variants are deadlock-free on any topology; on/off schemes (PFC, BFC)
//     and credit schemes (CBFC) are only deadlock-free when the CBD graph is
//     acyclic and the feedback path is unfaulted.
//   - Spang-style buffer-sizing envelopes: each scheme's worst-case ingress
//     occupancy is its stop/slow threshold plus the C·τ of data in flight
//     during one worst-case feedback latency (equation 6 per link), clamped
//     to the physical buffer.
//   - Conservation bounds: total delivered bytes cannot exceed the aggregate
//     host link capacity × duration, and a deadlock-free unfaulted run must
//     deliver something once the horizon comfortably exceeds a warmup.
//
// The package sits below internal/scenario (which adapts a built Sim into an
// Input) and above internal/core / internal/flowcontrol, whose closed-form
// bounds it reuses. Predict is pure: same Input, same Prediction.
package analytic

import (
	"errors"
	"fmt"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Scheme names a flow-control scheme. The values match scenario.FC so the
// two layers convert with a string cast without importing each other.
type Scheme string

// The analysed schemes.
const (
	PFC           Scheme = "PFC"
	CBFC          Scheme = "CBFC"
	GFCBuffer     Scheme = "GFC-buffer"
	GFCTime       Scheme = "GFC-time"
	GFCConceptual Scheme = "GFC-conceptual"
	BFC           Scheme = "BFC"
)

// Params carries the scheme thresholds of the run under analysis — the same
// quantities as scenario.FCParams. Zero fields are resolved by the
// flowcontrol package's own Resolve functions, the ones its factories call, so
// a preset that leaves a threshold to the factory is analysed with the value
// the factory will actually install.
type Params struct {
	XOFF   units.Size
	B1     units.Size
	Bm     units.Size
	B0     units.Size
	Period units.Time
}

// Input is one compiled scenario to analyse.
type Input struct {
	// Topo is the (possibly link-failed) topology. Required.
	Topo *topology.Topology
	// Scheme is the flow-control scheme under test. Required.
	Scheme Scheme
	// Cfg is the resolved simulator configuration (buffer size, MTU,
	// τ override, processing delay). BufferSize is required; netsim's own
	// filler defaults the rest.
	Cfg netsim.Config
	// Params are the resolved scheme thresholds.
	Params Params
	// CBDCyclic is the workload's cyclic-buffer-dependency verdict.
	CBDCyclic bool
	// Faulted marks a run with an attached fault injector: feedback may
	// be lost, delayed or forged, so only fault-robust bounds are
	// asserted.
	Faulted bool
	// Duration is the declared run horizon. Required.
	Duration units.Time
}

// Prediction is the per-topology analytic verdict: the bounds the
// metrics-layer network checker asserts, plus the witnesses they rest on.
type Prediction struct {
	// NetworkBounds are the guarantees: DeadlockFree when every dependency
	// cycle keeps a positive service rate (or there is none), Lossless when
	// the thresholds leave the reaction headroom, the occupancy envelope,
	// and delivered bytes over Duration bounded above and (the progress
	// floor, 0 when nothing is guaranteed) below.
	metrics.NetworkBounds
	// FloorRate is the worst-case positive service rate the scheme
	// sustains on a congested channel — the Bouillard cycle-service
	// witness (0 when the scheme can stop a channel completely).
	FloorRate units.Rate
	// Tau is the worst-case feedback latency the envelope budgets for:
	// max(configured τ override, per-link equation-6 bound).
	Tau units.Time
}

// warmup is the horizon below which no progress floor is asserted: first
// deliveries need the workload start plus a few path traversals, and 1 ms is
// hundreds of hop latencies on every topology in the catalogue.
const warmup = 1 * units.Millisecond

// Predict computes the analytic prediction for one compiled scenario. It is
// pure and deterministic; an error means the input cannot be analysed (no
// topology, no live links, unknown scheme), never that a bound is violated.
func Predict(in Input) (*Prediction, error) {
	if in.Topo == nil {
		return nil, errors.New("analytic: topology is required")
	}
	if in.Duration <= 0 {
		return nil, fmt.Errorf("analytic: duration %d must be positive", in.Duration)
	}
	cfg := in.Cfg
	cfg.FillDefaults()
	if cfg.BufferSize <= 0 {
		return nil, errors.New("analytic: buffer size is required")
	}

	// Worst-case line rate and feedback latencies over the live links.
	// tauActual bounds what the simulated feedback path can actually take
	// (equation 6); tauBudget is what the factories sized the thresholds
	// for (the configured override, or the same derivation).
	// The envelope must absorb tauActual; the losslessness claims require
	// the budget to cover it.
	var tauActual, tauBudget units.Time
	var maxCap units.Rate
	for i := 0; i < in.Topo.NumLinks(); i++ {
		l := in.Topo.Link(topology.LinkID(i))
		if l.Failed {
			continue
		}
		maxCap = max(maxCap, l.Capacity)
		tauActual = max(tauActual, core.Tau(l.Capacity, cfg.MTU, l.Delay, cfg.ProcDelay))
		tauBudget = max(tauBudget, cfg.ChannelTau(l))
	}
	if maxCap <= 0 {
		return nil, errors.New("analytic: topology has no live links")
	}

	p := &Prediction{Tau: max(tauActual, tauBudget)}
	B := cfg.BufferSize
	mtu := cfg.MTU
	inflight := units.BytesIn(maxCap, tauActual)
	acyclic := !in.Faulted && !in.CBDCyclic
	// The worst-case channel as the factories see it and as the wire
	// behaves. Per scheme, th is what the factory installs (resolved at the
	// budget) and safe the largest threshold that is still safe at the
	// actual latency (the same Resolve with the threshold left unset).
	budget := flowcontrol.Params{Capacity: maxCap, Buffer: B, MTU: mtu, Tau: tauBudget}
	actual := budget
	actual.Tau = tauActual

	switch in.Scheme {
	case PFC:
		if th := (flowcontrol.PFCConfig{XOFF: in.Params.XOFF}); th.XOFF > 0 && !in.Faulted {
			// Overshoot past XOFF is bounded by one feedback latency of
			// line-rate arrivals plus the packet in flight when PAUSE
			// lands. A faulted feedback path voids the bound (a delayed
			// PAUSE admits arbitrarily more), so faulted runs fall back
			// to the physical buffer.
			p.MaxOccupancy = min(th.XOFF+inflight+2*mtu, B)
			p.Lossless = th.CoversInflight(actual)
		} else {
			// Factory-derived thresholds (PFCConfig.Resolve) leave exactly
			// C·τ_budget headroom per channel, so the envelope is the
			// buffer itself and losslessness needs the budget to cover
			// the actual latency.
			p.MaxOccupancy = B
			p.Lossless = !in.Faulted && tauBudget >= tauActual
		}
		p.DeadlockFree = acyclic
	case CBFC:
		// Credits never overcommit the buffer: the receiver only grants
		// what fits, so occupancy is buffer-bounded and no drop is
		// possible — but a zero credit balance stops a channel outright.
		p.MaxOccupancy = B
		p.Lossless = !in.Faulted
		p.DeadlockFree = acyclic
	case BFC:
		// Per-queue XOFF/XON are derived from the channel parameters the
		// way PFC's are (queue-fold aware), so the class-level envelope
		// is the buffer and losslessness needs the τ budget to hold.
		p.MaxOccupancy = B
		p.Lossless = !in.Faulted && tauBudget >= tauActual
		p.DeadlockFree = acyclic
	case GFCBuffer:
		th, _ := flowcontrol.GFCBufferConfig{B1: in.Params.B1, Bm: in.Params.Bm}.Resolve(budget)
		safe, _ := flowcontrol.GFCBufferConfig{Bm: th.Bm}.Resolve(actual)
		ceil, fits := flowcontrol.OccupancyCeiling(th.Bm, B, mtu)
		p.MaxOccupancy = gfcEnvelope(ceil, B, in.Faulted)
		p.Lossless = !in.Faulted && fits && th.B1 > 0 && th.B1 <= safe.B1
		if st, err := core.NewStageTableRatio(maxCap, th.Bm, th.B1, th.Ratio); err == nil {
			p.FloorRate = st.StageRate(st.Stages())
		}
		// The stage table's deepest rate is positive by construction, so
		// every dependency cycle keeps draining (Bouillard stability).
		p.DeadlockFree = true
	case GFCTime:
		th, _ := flowcontrol.GFCTimeConfig{Period: in.Params.Period, B0: in.Params.B0, Bm: in.Params.Bm}.Resolve(budget)
		safe, _ := flowcontrol.GFCTimeConfig{Period: th.Period, Bm: th.Bm}.Resolve(actual)
		ceil, fits := flowcontrol.OccupancyCeiling(th.Bm, B, mtu)
		p.MaxOccupancy = gfcEnvelope(ceil, B, in.Faulted)
		p.Lossless = !in.Faulted && fits && th.B0 > 0 && th.B0 <= safe.B0
		// The Rate Adjuster clamps at a positive minimum rate instead of
		// zero.
		p.FloorRate = flowcontrol.DefaultMinRate
		p.DeadlockFree = true
	case GFCConceptual:
		th, _ := flowcontrol.GFCConceptualConfig{B0: in.Params.B0, Bm: in.Params.Bm}.Resolve(budget)
		safe, _ := flowcontrol.GFCConceptualConfig{Bm: th.Bm}.Resolve(actual)
		// The continuous mapping reaches rate zero at B_m, so the queue
		// can overshoot it by a feedback latency of in-flight data.
		p.MaxOccupancy = gfcEnvelope(min(th.Bm+inflight+2*mtu, B), B, in.Faulted)
		b0ok := th.B0 > 0 && th.B0 <= safe.B0
		p.Lossless = !in.Faulted && th.Bm <= B && b0ok
		// Theorem 4.1: with B_0 ≤ B_m − 4Cτ the queue provably never
		// reaches B_m, so the mapped rate never hits zero. Otherwise the
		// scheme can stall a channel and only an acyclic CBD saves it.
		p.DeadlockFree = (b0ok && !in.Faulted) || acyclic
	default:
		return nil, fmt.Errorf("analytic: unknown scheme %q", in.Scheme)
	}

	// Conservation: every delivered byte crossed some live host-attached
	// link, each of which carries at most capacity × duration plus one
	// packet already in flight at the horizon.
	for _, h := range in.Topo.Hosts() {
		for _, at := range in.Topo.Ports(h) {
			if at.Link.Failed {
				continue
			}
			p.MaxDelivered += units.BytesIn(at.Link.Capacity, in.Duration) + mtu
		}
	}

	// Progress floor: a deadlock-free, unfaulted run with a horizon well
	// past warmup must deliver something — the Bouillard positive-service
	// argument gives every cycle channel at least FloorRate of drain, and
	// acyclic schemes drain at line rate.
	if p.DeadlockFree && !in.Faulted && in.Duration >= warmup {
		p.MinDelivered = 1
	}
	return p, nil
}

// gfcEnvelope is a GFC channel's occupancy envelope: the runtime ceiling while
// rate feedback arrives intact, the physical buffer once a faulted feedback
// path (lost or forged updates) voids it.
func gfcEnvelope(ceil, buffer units.Size, faulted bool) units.Size {
	if faulted {
		return buffer
	}
	return ceil
}
