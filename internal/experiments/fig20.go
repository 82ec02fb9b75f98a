package experiments

import (
	"github.com/gfcsim/gfc/internal/dcqcn"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Fig20Result holds the §7 interaction study traces: the switch ingress
// queue, H1's DCQCN rate and H1's GFC port rate over time. The paper's
// narrative: GFC caps the port at 1.25 Gb/s within one hop-RTT of the incast
// onset; DCQCN then converges below that, at which point GFC is inactive.
type Fig20Result struct {
	*scenario.Result
	Queue     *stats.Series // ingress queue at S1 from H1
	DCQCNRate *stats.Series // H1 flow rate under DCQCN
	GFCRate   *stats.Series // H1 port rate under GFC
	// MaxQueue is the worst ingress occupancy across S1's ports.
	MaxQueue units.Size
	// FinalDCQCN is DCQCN's rate at the end (≈ fair share 1.25 Gb/s).
	FinalDCQCN units.Rate
}

// RunFig20 executes the dumbbell incast (scenario.Incast: 8 senders → 1
// receiver, ECN threshold 40 KB) with buffer-based GFC and DCQCN together.
func RunFig20(o RunOptions) (*Fig20Result, error) {
	res := &Fig20Result{
		Queue:     &stats.Series{},
		DCQCNRate: &stats.Series{},
		GFCRate:   &stats.Series{},
	}
	sim, err := o.build(scenario.Incast(GFCBuf), scenario.Overrides{
		Trace: func(topo *topology.Topology) *netsim.Trace {
			s1 := topo.MustLookup("S1")
			return &netsim.Trace{
				OnQueue: func(t units.Time, node topology.NodeID, port int, q units.Size) {
					if node == s1 && port == 0 {
						res.Queue.Append(t, float64(q))
					}
					if node == s1 && units.Size(q) > res.MaxQueue {
						res.MaxQueue = q
					}
				},
				OnDeliver: func(t units.Time, f *netsim.Flow, pkt *netsim.Packet) {
					f.Pacer.(*dcqcn.RP).OnDeliver(t, pkt)
				},
			}
		},
	})
	if err != nil {
		return nil, err
	}
	net := sim.Net
	// Every declared flow runs DCQCN; a flow reads its Pacer only once
	// the engine runs, so attaching after Build is in time.
	for _, f := range sim.Flows {
		rp := dcqcn.Attach(net, f, 10*units.Gbps)
		if f.ID == 1 {
			rp.RateLog = func(t units.Time, r units.Rate) {
				res.DCQCNRate.Append(t, float64(r))
			}
		}
	}
	d := sim.Spec.Run.DurationNs
	// Sample H1's GFC port rate periodically.
	h1 := sim.Topo.MustLookup("H1")
	var sample func(int32)
	sample = func(int32) {
		res.GFCRate.Append(net.Now(), float64(net.SenderRate(h1, 0)))
		if net.Now() < d {
			net.Engine().After(50*units.Microsecond, sample, 0)
		}
	}
	net.Engine().After(50*units.Microsecond, sample, 0)
	if res.Result, err = o.run(sim); err != nil {
		return nil, err
	}
	res.FinalDCQCN = units.Rate(res.DCQCNRate.MeanAfter(d * 3 / 4))
	return res, nil
}
