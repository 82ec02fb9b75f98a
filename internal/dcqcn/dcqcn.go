// Package dcqcn implements DCQCN (Zhu et al., SIGCOMM 2015), the end-to-end
// congestion control the paper pairs with GFC in its Figure 20 interaction
// study (§7). The three roles:
//
//   - CP (congestion point, the switch): ECN-marks packets when the queue
//     exceeds a threshold — provided by netsim.Config.ECNThreshold;
//   - NP (notification point, the receiver): echoes marks back as CNPs, at
//     most one per flow per CNP interval N;
//   - RP (reaction point, the sender NIC): multiplicative decrease on CNP,
//     then fast recovery / additive increase / hyper increase.
//
// The RP attaches to a simulated flow as its netsim.Pacer.
package dcqcn

import (
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/units"
)

// Config holds the DCQCN constants. The zero value is unusable; start from
// DefaultConfig, whose values are the paper's Figure 20 settings (α=0.5,
// g=1/256, N=50µs, K=55µs) with the DCQCN paper's defaults for the rest.
type Config struct {
	LineRate units.Rate
	// AlphaInit seeds the congestion estimate α.
	AlphaInit float64
	// G is the α averaging gain g.
	G float64
	// CNPInterval is N: the NP sends at most one CNP per flow per N.
	CNPInterval units.Time
	// AlphaTimer is K: without CNPs for K, α decays by (1−g).
	AlphaTimer units.Time
	// IncreaseTimer is the RP rate-increase period.
	IncreaseTimer units.Time
	// IncreaseBytes is the byte-counter stage size (0 disables the byte
	// counter).
	IncreaseBytes units.Size
	// F is the number of fast-recovery stages before additive increase.
	F int
	// RAI is the additive-increase step; RHAI the hyper-increase step.
	RAI  units.Rate
	RHAI units.Rate
	// MinRate floors the sending rate.
	MinRate units.Rate
}

// DefaultConfig returns the paper's Figure 20 parameterisation for a line
// rate c.
func DefaultConfig(c units.Rate) Config {
	return Config{
		LineRate:      c,
		AlphaInit:     0.5,
		G:             1.0 / 256,
		CNPInterval:   50 * units.Microsecond,
		AlphaTimer:    55 * units.Microsecond,
		IncreaseTimer: 55 * units.Microsecond,
		IncreaseBytes: 10 * units.MB,
		F:             5,
		RAI:           40 * units.Mbps,
		RHAI:          400 * units.Mbps,
		MinRate:       1 * units.Mbps,
	}
}

// RP is the per-flow reaction point: a netsim.Pacer plus the DCQCN rate
// state machine.
type RP struct {
	cfg Config
	net *netsim.Network

	rc, rt   units.Rate // current and target rate
	alpha    float64
	lastCNP  units.Time
	everCNP  bool
	tStage   int
	bStage   int
	bCounter units.Size

	next units.Time // pacer release gate

	// RateLog, when non-nil, receives (time, rc) samples on every rate
	// change, for the Figure 20 trace.
	RateLog func(units.Time, units.Rate)
}

// Attach installs DCQCN on flow f within network net: the flow is paced by
// the RP, and the receiver-side NP hook echoes ECN marks as CNPs. Returns
// the RP for inspection.
func Attach(net *netsim.Network, f *netsim.Flow, cfg Config) *RP {
	rp := &RP{
		cfg:   cfg,
		net:   net,
		rc:    cfg.LineRate,
		rt:    cfg.LineRate,
		alpha: cfg.AlphaInit,
	}
	// The latency from the NP observing a mark to the RP reacting: about
	// one RTT segment, the reverse path carrying a minimum-size frame.
	cnpDelay := routing.PathLatency(f.Path, 64*units.Byte)
	var lastEcho units.Time = -units.Never // NP state: last CNP emission
	f.Pacer = rp
	prev := f.OnPacket
	f.OnPacket = func(fl *netsim.Flow, pkt *netsim.Packet) {
		if prev != nil {
			prev(fl, pkt)
		}
		if !pkt.ECN {
			return
		}
		now := net.Now()
		if lastEcho != -units.Never && now-lastEcho < cfg.CNPInterval {
			return // NP rate-limits CNPs to one per interval
		}
		lastEcho = now
		net.Engine().After(cnpDelay, rp.onCNP)
	}
	rp.startTimers()
	return rp
}

// NextAllowed implements netsim.Pacer.
func (rp *RP) NextAllowed(now units.Time, _ units.Size) units.Time { return rp.next }

// OnRelease implements netsim.Pacer.
func (rp *RP) OnRelease(now units.Time, size units.Size) {
	gap := units.TransmissionTime(size, rp.rc)
	if rp.next < now {
		rp.next = now
	}
	rp.next += gap
	// Byte-counter increase stages.
	if rp.cfg.IncreaseBytes > 0 {
		rp.bCounter += size
		for rp.bCounter >= rp.cfg.IncreaseBytes {
			rp.bCounter -= rp.cfg.IncreaseBytes
			rp.bStage++
			rp.increase()
		}
	}
}

// onCNP applies the multiplicative decrease.
func (rp *RP) onCNP() {
	now := rp.net.Now()
	rp.rt = rp.rc
	rp.rc = units.Rate(float64(rp.rc) * (1 - rp.alpha/2))
	if rp.rc < rp.cfg.MinRate {
		rp.rc = rp.cfg.MinRate
	}
	rp.alpha = (1-rp.cfg.G)*rp.alpha + rp.cfg.G
	rp.lastCNP = now
	rp.everCNP = true
	rp.tStage = 0
	rp.bStage = 0
	rp.bCounter = 0
	rp.log()
}

// startTimers installs the α-decay and rate-increase timers.
func (rp *RP) startTimers() {
	var alphaTick func()
	alphaTick = func() {
		if rp.everCNP && rp.net.Now()-rp.lastCNP >= rp.cfg.AlphaTimer {
			rp.alpha *= 1 - rp.cfg.G
		}
		rp.net.Engine().After(rp.cfg.AlphaTimer, alphaTick)
	}
	rp.net.Engine().After(rp.cfg.AlphaTimer, alphaTick)

	var incTick func()
	incTick = func() {
		if rp.everCNP {
			rp.tStage++
			rp.increase()
		}
		rp.net.Engine().After(rp.cfg.IncreaseTimer, incTick)
	}
	rp.net.Engine().After(rp.cfg.IncreaseTimer, incTick)
}

// increase runs one recovery/increase step, per the DCQCN RP state machine:
// fast recovery while both stage counters are below F, hyper increase once
// both exceed F, additive increase otherwise.
func (rp *RP) increase() {
	switch {
	case rp.tStage < rp.cfg.F && rp.bStage < rp.cfg.F:
		// Fast recovery: close half the gap to the target.
	case rp.tStage > rp.cfg.F && rp.bStage > rp.cfg.F:
		rp.rt += rp.cfg.RHAI
	default:
		rp.rt += rp.cfg.RAI
	}
	if rp.rt > rp.cfg.LineRate {
		rp.rt = rp.cfg.LineRate
	}
	rp.rc = (rp.rc + rp.rt) / 2
	if rp.rc > rp.cfg.LineRate {
		rp.rc = rp.cfg.LineRate
	}
	rp.log()
}

func (rp *RP) log() {
	if rp.RateLog != nil {
		rp.RateLog(rp.net.Now(), rp.rc)
	}
}
