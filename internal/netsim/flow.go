package netsim

import (
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Pacer rate-limits one flow at its source NIC; congestion controls such as
// DCQCN implement it. The zero pacer (nil) means unpaced: the flow offers
// packets as fast as the NIC drains them.
type Pacer interface {
	// NextAllowed reports the earliest time the flow's next packet of
	// the given size may be released to the NIC queue.
	NextAllowed(now units.Time, size units.Size) units.Time
	// OnRelease records that a packet of the given size was released at
	// the given time.
	OnRelease(now units.Time, size units.Size)
}

// Flow is one unidirectional transfer from Src to Dst.
type Flow struct {
	ID       int
	Src, Dst topology.NodeID
	// Size is the total bytes to transfer; 0 means unbounded (the flow
	// never completes), the paper's "hosts generate packets at line
	// rate" workload.
	Size units.Size
	// Path is the source route, shared by every packet of the flow: a
	// packet at hop i is held by Path[i].Node. It must not change after
	// AddFlow, because in-flight packets index it.
	Path []routing.Hop
	// Pacer optionally rate-limits the flow at the source (DCQCN).
	Pacer Pacer
	// OnDone, if set, is called once when the flow completes; workload
	// generators use it to chain successor flows.
	OnDone func(*Flow)

	// Runtime state, owned by the Network.
	released  units.Size // bytes handed to the NIC queue
	Delivered units.Size // bytes received at Dst
	Started   units.Time
	Finished  units.Time // delivery time of the last byte; 0 while active
	seq       uint32
}

// Done reports whether a finite flow has been fully delivered.
func (f *Flow) Done() bool { return f.Size > 0 && f.Delivered >= f.Size }

// FCT reports the flow completion time; valid only once Done.
func (f *Flow) FCT() units.Time { return f.Finished - f.Started }

// remaining reports bytes not yet released to the NIC; unbounded flows
// always have an MTU's worth.
func (f *Flow) remaining(mtu units.Size) units.Size {
	if f.Size == 0 {
		return mtu
	}
	if r := f.Size - f.released; r > 0 {
		return r
	}
	return 0
}
