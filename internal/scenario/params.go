package scenario

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/units"
)

// FC names a flow-control scheme under evaluation.
type FC string

// The four schemes of the paper's comparison, plus the conceptual design of
// §4.1 (continuous feedback; used by the Figure 5 illustration only) and BFC
// (per-flow-queue backpressure, Goyal et al.; the fault-matrix challenger).
const (
	PFC           FC = "PFC"
	CBFC          FC = "CBFC"
	GFCBuf        FC = "GFC-buffer"
	GFCTime       FC = "GFC-time"
	GFCConceptual FC = "GFC-conceptual"
	BFC           FC = "BFC"
)

// AllFCs lists the four schemes in the paper's presentation order. BFC is
// not included — it is outside the paper's own comparison; racers that want
// it (the fault matrix) add it explicitly.
func AllFCs() []FC { return []FC{PFC, GFCBuf, CBFC, GFCTime} }

// IsGFC reports whether the scheme is one of the GFC variants.
func (fc FC) IsGFC() bool { return fc == GFCBuf || fc == GFCTime }

// Known reports whether fc names a scheme Factory can build.
func (fc FC) Known() bool {
	switch fc {
	case PFC, CBFC, GFCBuf, GFCTime, GFCConceptual, BFC:
		return true
	}
	return false
}

// FCParams carries the per-scheme parameters of one experimental setup. All
// fields are JSON-serialisable so a SchemeSpec can carry them verbatim; zero
// fields defer to the flow-control factories' own derivations.
type FCParams struct {
	XOFF units.Size `json:"xoff_bytes,omitempty"` // PFC
	XON  units.Size `json:"xon_bytes,omitempty"`  // PFC
	// B1 is buffer-based GFC's first threshold.
	B1 units.Size `json:"b1_bytes,omitempty"`
	// Bm is the GFC mapping ceiling (0 = derive).
	Bm units.Size `json:"bm_bytes,omitempty"`
	// Period is the CBFC / time-based GFC feedback period.
	Period units.Time `json:"period_ns,omitempty"`
	// B0 is the time-based (and conceptual) GFC threshold.
	B0 units.Size `json:"b0_bytes,omitempty"`
	// Refresh is buffer-based GFC's periodic stage re-advertisement
	// (loss repair); zero keeps the paper's pure edge-triggered feedback.
	Refresh units.Time `json:"refresh_ns,omitempty"`
	// Queues is BFC's physical queue count per channel (0 = the
	// flowcontrol default). BFC derives its per-queue XOFF/XON from the
	// channel parameters rather than taking the PFC thresholds above —
	// those are class-scoped and would overcommit the buffer queues-fold.
	Queues int `json:"queues,omitempty"`
}

// merge overlays the non-zero fields of o onto p.
func (p FCParams) merge(o FCParams) FCParams {
	if o.XOFF != 0 {
		p.XOFF = o.XOFF
	}
	if o.XON != 0 {
		p.XON = o.XON
	}
	if o.B1 != 0 {
		p.B1 = o.B1
	}
	if o.Bm != 0 {
		p.Bm = o.Bm
	}
	if o.Period != 0 {
		p.Period = o.Period
	}
	if o.B0 != 0 {
		p.B0 = o.B0
	}
	if o.Refresh != 0 {
		p.Refresh = o.Refresh
	}
	if o.Queues != 0 {
		p.Queues = o.Queues
	}
	return p
}

// The per-scheme flowcontrol configurations p describes. Zero thresholds stay
// zero here: the configs' own Resolve methods decide the defaults per channel,
// for the factory, the fluid compiler and the analytic predictor alike.
func (p FCParams) pfc() flowcontrol.PFCConfig {
	return flowcontrol.PFCConfig{XOFF: p.XOFF, XON: p.XON}
}

func (p FCParams) gfcBuffer() flowcontrol.GFCBufferConfig {
	return flowcontrol.GFCBufferConfig{B1: p.B1, Bm: p.Bm, Refresh: p.Refresh}
}

func (p FCParams) gfcTime() flowcontrol.GFCTimeConfig {
	return flowcontrol.GFCTimeConfig{Period: p.Period, B0: p.B0, Bm: p.Bm}
}

func (p FCParams) gfcConceptual() flowcontrol.GFCConceptualConfig {
	return flowcontrol.GFCConceptualConfig{B0: p.B0, Bm: p.Bm}
}

// Factory returns the flowcontrol.Factory for scheme fc under params p.
func (p FCParams) Factory(fc FC) flowcontrol.Factory {
	switch fc {
	case PFC:
		return flowcontrol.NewPFC(p.pfc())
	case CBFC:
		return flowcontrol.NewCBFC(flowcontrol.CBFCConfig{Period: p.Period})
	case GFCBuf:
		return flowcontrol.NewGFCBuffer(p.gfcBuffer())
	case GFCTime:
		return flowcontrol.NewGFCTime(p.gfcTime())
	case GFCConceptual:
		return flowcontrol.NewGFCConceptual(p.gfcConceptual())
	case BFC:
		return flowcontrol.NewBFCQueues(p.Queues)
	default:
		panic(fmt.Sprintf("scenario: unknown scheme %q", fc))
	}
}

// TestbedParams are the §6.1 software-testbed settings: 1 MB buffers,
// τ = 90 µs, XOFF/XON = 800/797 KB, B1 = 750 KB, T = 52.4 µs, B0 = 492 KB.
func TestbedParams() (netsim.Config, FCParams) {
	cfg := netsim.Config{
		BufferSize: 1000 * units.KB,
		Tau:        90 * units.Microsecond,
	}
	fp := FCParams{
		XOFF:   800 * units.KB,
		XON:    797 * units.KB,
		B1:     750 * units.KB,
		Period: 52400 * units.Nanosecond,
		B0:     492 * units.KB,
	}
	return cfg, fp
}

// SimParams are the §6.2.2 packet-level simulation settings: 300 KB buffers,
// 10 Gb/s, 1 µs propagation, XOFF/XON = 280/277 KB.
//
// The paper sets B_m = B = 300 KB and B1 = 281 KB / B0 = 159 KB. Because the
// practical step mapping keeps a positive floor rate at its deepest stage
// (§4.2), a fully stopped drain can push the queue a few packets past B_m;
// we keep four MTUs of headroom (B_m = 294 KB) and shift B1/B0 down by the
// same margin so the paper's own safety bounds still hold and losslessness
// stays strict.
func SimParams() (netsim.Config, FCParams) {
	cfg := netsim.Config{
		BufferSize: 300 * units.KB,
	}
	fp := FCParams{
		XOFF:   280 * units.KB,
		XON:    277 * units.KB,
		B1:     275 * units.KB,
		Bm:     294 * units.KB,
		Period: 52400 * units.Nanosecond,
		B0:     153 * units.KB,
	}
	return cfg, fp
}
