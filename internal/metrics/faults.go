package metrics

import (
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// FaultEvent is one injected fault, located where it acted; its tags are
// the report's fault records. Node/Port/From name the channel a feedback
// fault hit; a link-level fault names only Node, one end of Link.
type FaultEvent struct {
	Kind   faults.EventKind `json:"kind"`
	At     units.Time       `json:"at_ns"`
	Node   string           `json:"node,omitempty"`
	Port   int              `json:"port,omitempty"`
	From   string           `json:"from,omitempty"`
	Link   topology.LinkID  `json:"link"`
	Factor float64          `json:"factor,omitempty"`
}

// OnFault records one injected fault: ev located on channel ch, or, for a
// link-level fault (ch < 0), at node, one end of ev.Link. The full event
// list is bounded by maxFaults; the count is not. Recording faults is what
// lets a violation be attributed to its trigger: every Violation carries
// the number of faults injected before it (FaultsSoFar), so "which fault
// tripped this" is a lookup into the report's faults, and a violation with
// FaultsSoFar == 0 happened on a clean network.
func (r *Registry) OnFault(ev FaultEvent, ch int, node topology.NodeID) {
	r.faultCount++
	if len(r.faults) >= maxFaults {
		r.faultsTruncated++
		return
	}
	if ch >= 0 {
		ev.Node, ev.Port, ev.From = r.names(ch)
	} else {
		ev.Node = r.topo.Node(node).Name
	}
	r.faults = append(r.faults, ev)
}

// FaultsInjected reports how many faults have been recorded (including
// ones beyond the maxFaults event cap).
func (r *Registry) FaultsInjected() int64 { return r.faultCount }
