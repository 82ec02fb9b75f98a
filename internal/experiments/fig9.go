package experiments

import (
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/viz"
)

// RingResult holds one Figures 9/10 run: the run's verdict (deadlock, DCFIT,
// drops, fault counters) plus the queue and input-rate traces of the switch
// port connecting H1.
type RingResult struct {
	*scenario.Result
	Queue *stats.Series // ingress S1←H1 occupancy
	Rate  *stats.Series // H1's achieved input rate, 100 µs bins
	// SteadyQueue / SteadyRate average the final quarter of the run
	// (≈840 KB / 5 Gb/s for buffer-based GFC in the paper's testbed,
	// ≈745 KB / 5 Gb/s for time-based).
	SteadyQueue units.Size
	SteadyRate  units.Rate
	// MinFlow is the worst-served flow's share of the delivered bytes (zero
	// means a flow was starved outright — the per-port progress criterion
	// of the fault matrix).
	MinFlow units.Size
}

// RingTopology builds the topology RunRing simulates for a scenario.Ring
// spec, so fault specs can be checked against the exact link set.
func RingTopology(hostsPerSwitch int) *topology.Topology {
	return topology.RingHosts(3, hostsPerSwitch, topology.DefaultLinkParams())
}

// RunRing executes the §6.1 ring experiment spec declares — scenario.Ring, or
// scenario.RingFaulted with its Faults section — with the testbed parameters
// (1 MB buffers, τ = 90 µs); only the figure's own trace collection lives
// here.
func RunRing(spec scenario.Spec, o RunOptions) (*RingResult, error) {
	return runRing(spec, o, &stats.Series{})
}

// runRing is RunRing with the S1←H1 queue trace optional: a nil queue records
// none and leaves Queue and SteadyQueue unset (the fault matrix reads neither).
func runRing(spec scenario.Spec, o RunOptions, queue *stats.Series) (*RingResult, error) {
	res := &RingResult{Queue: queue}
	arrivals := stats.NewBinCounter(100 * units.Microsecond)
	sim, err := o.build(spec, scenario.Overrides{Trace: h1Probe(queue, arrivals)})
	if err != nil {
		return nil, err
	}
	d := sim.Spec.Run.DurationNs
	if queue != nil {
		// The S1←H1 queue changes at most about twice per MTU serialisation
		// time on the host link (one arrival, one departure), so size the
		// trace for the horizon instead of re-growing a megabyte-scale slice
		// pair by doubling.
		simCfg, _ := scenario.TestbedParams()
		simCfg.FillDefaults()
		points := int(2 * d / units.TransmissionTime(simCfg.MTU, topology.DefaultLinkParams().Capacity))
		queue.T = make([]units.Time, 0, points)
		queue.V = make([]float64, 0, points)
	}
	if res.Result, err = o.run(sim); err != nil {
		return nil, err
	}

	res.Rate = viz.RateSeries(arrivals)
	if queue != nil {
		res.SteadyQueue = units.Size(queue.MeanAfter(d * 3 / 4))
	}
	res.SteadyRate = units.Rate(res.Rate.MeanAfter(d * 3 / 4))
	for i, f := range sim.Flows {
		if i == 0 || f.Delivered < res.MinFlow {
			res.MinFlow = f.Delivered
		}
	}
	return res, nil
}
