package experiments

import (
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/viz"
)

// Fig5Result holds the rate and queue evolutions of the §4.1 illustration.
type Fig5Result struct {
	*scenario.Result
	// Queue is the congested ingress queue length over time (bytes).
	Queue *stats.Series
	// Rate is H1's input rate over time (bits/s), measured as arrival
	// bytes at the switch in 25 µs bins.
	Rate *stats.Series
	// SteadyQueue is the mean queue over the final quarter of the run.
	SteadyQueue units.Size
}

// h1Probe returns the trace every two-sender figure reads (Figures 5, 9 and
// 10): the occupancy of the S1 ingress fed by H1 (port 0 on S1) into queue
// when it is non-nil, and H1's arrival bytes at S1 into arrivals.
func h1Probe(queue *stats.Series, arrivals *stats.BinCounter) func(*topology.Topology) *netsim.Trace {
	return func(topo *topology.Topology) *netsim.Trace {
		s1 := topo.MustLookup("S1")
		h1 := topo.MustLookup("H1")
		tr := &netsim.Trace{
			OnArrival: func(t units.Time, node topology.NodeID, pkt *netsim.Packet) {
				if node == s1 && pkt.Flow.Src == h1 {
					arrivals.Add(t, pkt.Size())
				}
			},
		}
		if queue != nil {
			tr.OnQueue = func(t units.Time, node topology.NodeID, port int, q units.Size) {
				if node == s1 && port == 0 {
					queue.Append(t, float64(q))
				}
			}
		}
		return tr
	}
}

// RunFig5 reproduces Figure 5 (scenario.Fig5): under PFC the queue saws
// between XON and XOFF and the input rate alternates 0 ↔ line rate; under
// conceptual GFC (any other fc) the queue converges to B_s = 75 KB and the
// rate to the 5 Gb/s draining rate.
func RunFig5(fc FC, o RunOptions) (*Fig5Result, error) {
	res := &Fig5Result{Queue: &stats.Series{}}
	arrivals := stats.NewBinCounter(25 * units.Microsecond)
	sim, err := o.build(scenario.Fig5(fc), scenario.Overrides{Trace: h1Probe(res.Queue, arrivals)})
	if err != nil {
		return nil, err
	}
	if res.Result, err = o.run(sim); err != nil {
		return nil, err
	}
	res.Rate = viz.RateSeries(arrivals)
	res.SteadyQueue = units.Size(res.Queue.MeanAfter(sim.Spec.Run.DurationNs * 3 / 4))
	return res, nil
}
