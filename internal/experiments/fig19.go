package experiments

import (
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// OverheadResult is the Figure 19 measurement: the distribution of per-port
// feedback-message bandwidth under buffer-based GFC (the paper's subject), counted in 500 µs bins
// as a fraction of link capacity. The paper reports mean 0.21%, p99 < 0.4%,
// max 0.49%.
type OverheadResult struct {
	*scenario.Result
	// CDF holds one sample per (port, bin): feedback bandwidth fraction.
	CDF *stats.CDF
	// Mean, P99 and Max are fractions of link capacity.
	Mean, P99, Max float64
}

// RunOverhead measures feedback bandwidth on the healthy fat-tree spec
// declares (scenario.Overhead) under the random enterprise workload.
func RunOverhead(spec scenario.Spec, o RunOptions) (*OverheadResult, error) {
	// Feedback wire bytes per channel in 500 µs bins, indexed as the
	// topology numbers channels — (node, port) order, the order the samples
	// enter the CDF in. A message emitted at a bin's closing instant counts
	// in that bin, hence t-1.
	const bin = 500 * units.Microsecond
	var wire []*stats.BinCounter
	sim, err := o.build(spec, scenario.Overrides{
		Trace: func(topo *topology.Topology) *netsim.Trace {
			bases := topo.ChannelBases()
			wire = make([]*stats.BinCounter, bases[topo.NumNodes()])
			for ch := range wire {
				wire[ch] = stats.NewBinCounter(bin)
			}
			return &netsim.Trace{
				OnFeedback: func(t units.Time, node topology.NodeID, port int) {
					wire[bases[node]+port].Add(t-1, flowcontrol.MessageSize)
				},
			}
		},
	})
	if err != nil {
		return nil, err
	}
	res := &OverheadResult{CDF: &stats.CDF{}}
	if res.Result, err = o.run(sim); err != nil {
		return nil, err
	}
	// Only the whole bins of the horizon are sampled and, as in the paper's
	// measurement, only channels that carried any feedback in them (idle
	// ports would swamp the CDF with zeros).
	nBins := int(sim.Spec.Run.DurationNs / bin)
	cap10G := float64(10 * units.Gbps)
	for _, w := range wire {
		var total units.Size
		for b, bytes := range w.Bins() {
			if b < nBins {
				total += bytes
			}
		}
		for b := 0; b < nBins && total > 0; b++ {
			res.CDF.Add(float64(w.Rate(b)) / cap10G)
		}
	}
	res.Mean = res.CDF.Mean()
	res.P99 = res.CDF.Quantile(0.99)
	res.Max = res.CDF.Max()
	return res, nil
}
