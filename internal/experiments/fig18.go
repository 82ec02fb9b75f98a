package experiments

import (
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// EvolutionResult is one Figure 18 run: the network-wide average throughput
// evolution on a deadlock-prone random scenario. Under PFC the curve
// collapses to zero shortly after the fatal flow combination appears; under
// GFC it stays up.
type EvolutionResult struct {
	*scenario.Result
	// Throughput is aggregate delivered bytes in 100 µs bins.
	Throughput *stats.BinCounter
	// FinalRate is the aggregate goodput over the last quarter.
	FinalRate units.Rate
}

// RunEvolution executes one Figure 18 trace (scenario.Evolution).
func RunEvolution(fc FC, o RunOptions) (*EvolutionResult, error) {
	res := &EvolutionResult{Throughput: stats.NewBinCounter(100 * units.Microsecond)}
	sim, err := o.build(scenario.Evolution(fc), scenario.Overrides{
		Trace: func(*topology.Topology) *netsim.Trace {
			return &netsim.Trace{
				OnDeliver: func(t units.Time, _ *netsim.Flow, pkt *netsim.Packet) {
					res.Throughput.Add(t, pkt.Size())
				},
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if res.Result, err = o.run(sim); err != nil {
		return nil, err
	}
	// Final-quarter aggregate rate.
	bins := res.Throughput.Bins()
	start := len(bins) * 3 / 4
	var bytes units.Size
	for _, b := range bins[start:] {
		bytes += b
	}
	res.FinalRate = units.RateOf(bytes, units.Time(len(bins)-start)*res.Throughput.Width)
	return res, nil
}
