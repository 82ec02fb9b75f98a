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
// The RP attaches to a simulated flow as its netsim.Pacer; the NP is the RP's
// OnDeliver, called from the run's netsim.Trace.
package dcqcn

import (
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/units"
)

// The DCQCN constants: the paper's Figure 20 settings (α=0.5, g=1/256,
// N=50µs, K=55µs) with the DCQCN paper's defaults for the rest.
const (
	// alphaInit seeds the congestion estimate α.
	alphaInit float64 = 0.5
	// g is the α averaging gain.
	g float64 = 1.0 / 256
	// cnpInterval is N: the NP sends at most one CNP per flow per N.
	cnpInterval = 50 * units.Microsecond
	// alphaTimer is K: without CNPs for K, α decays by (1−g).
	alphaTimer = 55 * units.Microsecond
	// increaseTimer is the RP rate-increase period.
	increaseTimer = 55 * units.Microsecond
	// increaseBytes is the byte-counter stage size.
	increaseBytes = 10 * units.MB
	// fastRecovery is F, the number of fast-recovery stages before
	// additive increase.
	fastRecovery = 5
	// rai is the additive-increase step; rhai the hyper-increase step.
	rai  = 40 * units.Mbps
	rhai = 400 * units.Mbps
	// minRate floors the sending rate.
	minRate = 1 * units.Mbps
)

// RP is the per-flow reaction point: a netsim.Pacer plus the DCQCN rate
// state machine.
type RP struct {
	lineRate units.Rate
	net      *netsim.Network

	rc, rt   units.Rate // current and target rate
	alpha    float64
	lastCNP  units.Time
	everCNP  bool
	tStage   int
	bStage   int
	bCounter units.Size

	next units.Time // pacer release gate

	// NP state: the CNP latency back to the RP and the last CNP emission.
	cnpDelay units.Time
	lastEcho units.Time

	// RateLog, when non-nil, receives (time, rc) samples on every rate
	// change, for the Figure 20 trace.
	RateLog func(units.Time, units.Rate)
}

// Attach installs DCQCN on flow f within network net, whose senders run at
// lineRate: the flow is paced by the RP, whose timers start now. The
// receiver-side NP is OnDeliver, which the run's netsim.Trace calls for
// each of f's delivered packets. Returns the RP for inspection.
func Attach(net *netsim.Network, f *netsim.Flow, lineRate units.Rate) *RP {
	rp := &RP{
		lineRate: lineRate,
		net:      net,
		rc:       lineRate,
		rt:       lineRate,
		alpha:    alphaInit,
		// The latency from the NP observing a mark to the RP reacting:
		// about one RTT segment, the reverse path carrying a minimum-size
		// frame.
		cnpDelay: routing.PathLatency(f.Path, 64*units.Byte),
		lastEcho: -units.Never,
	}
	f.Pacer = rp
	rp.startTimers()
	return rp
}

// OnDeliver is the notification point: it echoes an ECN-marked packet
// delivered at now as a CNP, which reaches the RP after one reverse-path
// latency, at most one per cnpInterval.
func (rp *RP) OnDeliver(now units.Time, pkt *netsim.Packet) {
	if !pkt.ECN {
		return
	}
	if rp.lastEcho != -units.Never && now-rp.lastEcho < cnpInterval {
		return // NP rate-limits CNPs to one per interval
	}
	rp.lastEcho = now
	rp.net.Engine().After(rp.cnpDelay, rp.onCNP, 0)
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
	rp.bCounter += size
	for rp.bCounter >= increaseBytes {
		rp.bCounter -= increaseBytes
		rp.bStage++
		rp.increase()
	}
}

// onCNP applies the multiplicative decrease.
func (rp *RP) onCNP(int32) {
	now := rp.net.Now()
	rp.rt = rp.rc
	rp.rc = units.Rate(float64(rp.rc) * (1 - rp.alpha/2))
	if rp.rc < minRate {
		rp.rc = minRate
	}
	rp.alpha = (1-g)*rp.alpha + g
	rp.lastCNP = now
	rp.everCNP = true
	rp.tStage = 0
	rp.bStage = 0
	rp.bCounter = 0
	rp.log()
}

// startTimers installs the α-decay and rate-increase timers.
func (rp *RP) startTimers() {
	var alphaTick func(int32)
	alphaTick = func(int32) {
		if rp.everCNP && rp.net.Now()-rp.lastCNP >= alphaTimer {
			rp.alpha *= 1 - g
		}
		rp.net.Engine().After(alphaTimer, alphaTick, 0)
	}
	rp.net.Engine().After(alphaTimer, alphaTick, 0)

	var incTick func(int32)
	incTick = func(int32) {
		if rp.everCNP {
			rp.tStage++
			rp.increase()
		}
		rp.net.Engine().After(increaseTimer, incTick, 0)
	}
	rp.net.Engine().After(increaseTimer, incTick, 0)
}

// increase runs one recovery/increase step, per the DCQCN RP state machine:
// fast recovery while both stage counters are below F, hyper increase once
// both exceed F, additive increase otherwise.
func (rp *RP) increase() {
	switch {
	case rp.tStage < fastRecovery && rp.bStage < fastRecovery:
		// Fast recovery: close half the gap to the target.
	case rp.tStage > fastRecovery && rp.bStage > fastRecovery:
		rp.rt += rhai
	default:
		rp.rt += rai
	}
	if rp.rt > rp.lineRate {
		rp.rt = rp.lineRate
	}
	rp.rc = (rp.rc + rp.rt) / 2
	if rp.rc > rp.lineRate {
		rp.rc = rp.lineRate
	}
	rp.log()
}

func (rp *RP) log() {
	if rp.RateLog != nil {
		rp.RateLog(rp.net.Now(), rp.rc)
	}
}
