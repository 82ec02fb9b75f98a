package metrics

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// FaultKind buckets injected faults for attribution. It mirrors the fault
// taxonomy of internal/faults without importing it: the registry depends on
// the model packages (core, flowcontrol) and value types, never on a
// simulator subsystem such as the injector.
type FaultKind uint8

// Fault kinds.
const (
	// FaultFeedbackDrop: a flow-control message was destroyed in flight.
	FaultFeedbackDrop FaultKind = iota
	// FaultFeedbackDelay: a flow-control message was delivered late.
	FaultFeedbackDelay
	// FaultLinkDown / FaultLinkUp: administrative link state flips.
	FaultLinkDown
	FaultLinkUp
	// FaultRateScale: a link's capacity was scaled by Factor.
	FaultRateScale
)

func (k FaultKind) String() string {
	switch k {
	case FaultFeedbackDrop:
		return "feedback-drop"
	case FaultFeedbackDelay:
		return "feedback-delay"
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultRateScale:
		return "rate-scale"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// FaultEvent is one injected fault as the simulator reported it. Channel is
// the dense channel index the fault acted on, or -1 for a link-level fault;
// Link locates the link and Node one of its ends.
type FaultEvent struct {
	Kind    FaultKind
	At      units.Time
	Channel int
	Link    topology.LinkID
	Node    topology.NodeID
	Factor  float64
}

// OnFault records one injected fault. The full event list is bounded by
// maxFaults; the count is not. Recording faults is what lets a
// violation be attributed to its trigger: every Violation carries the
// number of faults injected before it (FaultsSoFar), so "which fault
// tripped this" is a lookup into Faults(), and a violation with
// FaultsSoFar == 0 happened on a clean network.
func (r *Registry) OnFault(ev FaultEvent) {
	r.faultCount++
	if len(r.faults) < maxFaults {
		r.faults = append(r.faults, ev)
	} else {
		r.faultsTruncated++
	}
}

// FaultsInjected reports how many faults have been recorded (including
// ones beyond the maxFaults event cap).
func (r *Registry) FaultsInjected() int64 { return r.faultCount }

// FaultReport is the exported form of a FaultEvent.
type FaultReport struct {
	Kind string     `json:"kind"`
	At   units.Time `json:"at_ns"`
	// Node/Port/From name the channel for feedback faults; Link locates
	// link-level faults, and Node names one end of the link.
	Node   string  `json:"node,omitempty"`
	Port   int     `json:"port,omitempty"`
	From   string  `json:"from,omitempty"`
	Link   int     `json:"link"`
	Factor float64 `json:"factor,omitempty"`
}

// faultReport resolves ev's channel identity for export.
func (r *Registry) faultReport(ev FaultEvent) FaultReport {
	fr := FaultReport{
		Kind: ev.Kind.String(), At: ev.At,
		Link: int(ev.Link), Factor: ev.Factor,
	}
	if ev.Channel >= 0 && ev.Channel < len(r.chans) {
		ch := r.chans[ev.Channel]
		fr.Node, fr.Port, fr.From = ch.NodeName, ch.Port, ch.FromName
	} else if id := int(ev.Node); id >= 0 && id < len(r.base) {
		// Link-level fault: name the node via its first bound channel.
		if ci := r.base[id]; ci < len(r.chans) && r.chans[ci].Node == ev.Node {
			fr.Node = r.chans[ci].NodeName
		}
	}
	return fr
}
