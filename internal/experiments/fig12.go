package experiments

import (
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// CaseStudyResult is the outcome of one Figure 12/13 run: the deadlock
// verdict and per-flow goodput over the final quarter of the run, the
// measurement window.
type CaseStudyResult struct {
	*scenario.Result
	// FlowRates lists each flow's average goodput over the window, in
	// declaration order: F1..F4, then the cross flow when present. The
	// victim is reported below instead.
	FlowRates []units.Rate
	// Throughput is the aggregate goodput, binned at 100 µs (§6.2.3).
	Throughput *stats.BinCounter

	// Victim statistics (with the victim only). VictimRate is the window's
	// goodput; VictimTotal the cumulative delivery; VictimProgressed
	// whether any victim byte arrived during the window — the
	// deadlock-starvation discriminator (under a squeezed but alive GFC
	// fabric the rate can quantise to zero packets per window while
	// progress continues over longer spans).
	VictimRate       units.Rate
	VictimTotal      units.Size
	VictimProgressed bool
}

// RunCaseStudy executes the fat-tree deadlock case study spec declares
// (scenario.CaseStudy: Figures 12, 13 and, with the victim, 14).
func RunCaseStudy(spec scenario.Spec, o RunOptions) (*CaseStudyResult, error) {
	res := &CaseStudyResult{Throughput: stats.NewBinCounter(100 * units.Microsecond)}
	// opened is each flow's delivered bytes when the measurement window
	// opened, taken at the first delivery past the opening instant (less that
	// packet): a packet delivered at the instant itself is before the window,
	// as it was when the run paused there. It stays nil when nothing is
	// delivered inside the window.
	var (
		sim         *scenario.Sim
		windowStart units.Time
		opened      []units.Size
	)
	sim, err := o.build(spec, scenario.Overrides{
		Trace: func(*topology.Topology) *netsim.Trace {
			return &netsim.Trace{
				OnDeliver: func(t units.Time, f *netsim.Flow, pkt *netsim.Packet) {
					res.Throughput.Add(t, pkt.Size())
					if opened != nil || t <= windowStart {
						return
					}
					for _, fl := range sim.Flows {
						opened = append(opened, fl.Delivered)
						if fl == f {
							opened[len(opened)-1] -= pkt.Size()
						}
					}
				},
			}
		},
	})
	if err != nil {
		return nil, err
	}
	d := sim.Spec.Run.DurationNs
	windowStart = d * 3 / 4
	if res.Result, err = o.run(sim); err != nil {
		return nil, err
	}
	for i, f := range sim.Flows {
		inWindow := units.Size(0)
		if opened != nil {
			inWindow = f.Delivered - opened[i]
		}
		rate := units.RateOf(inWindow, d-windowStart)
		if f.ID == 99 { // the Figure 14 victim scenario.CaseStudy declares
			res.VictimRate = rate
			res.VictimTotal = f.Delivered
			res.VictimProgressed = inWindow > 0
			continue
		}
		res.FlowRates = append(res.FlowRates, rate)
	}
	return res, nil
}
