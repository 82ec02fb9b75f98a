// DCQCN interaction study (paper §7, Figure 20): an 8-to-1 incast on a
// dumbbell with both buffer-based GFC (hop-by-hop) and DCQCN (end-to-end)
// active. GFC caps the port rate within a hop RTT of the onset; DCQCN then
// converges to the fair share, leaving GFC inactive — flow control as a
// safeguard, congestion control in charge.
package main

import (
	"fmt"

	gfc "github.com/gfcsim/gfc"
)

func main() {
	topo := gfc.Dumbbell(8, gfc.DefaultLinkParams())
	sim, err := gfc.NewSimulation(topo, gfc.Options{
		BufferSize:   300 * gfc.KB,
		ECNThreshold: 40 * gfc.KB, // DCQCN marking threshold K
		FlowControl:  gfc.NewGFCBuffer(gfc.GFCBufferConfig{}),
	})
	if err != nil {
		panic(err)
	}
	tab := gfc.NewSPF(topo)
	recv := topo.MustLookup("H9")
	var rps []*gfc.DCQCNReactionPoint
	var flows []*gfc.Flow
	for i := 1; i <= 8; i++ {
		src := topo.MustLookup(fmt.Sprintf("H%d", i))
		path, err := tab.Path(src, recv, uint64(i))
		if err != nil {
			panic(err)
		}
		f := &gfc.Flow{ID: i, Src: src, Dst: recv, Path: path}
		rps = append(rps, gfc.AttachDCQCN(sim, f, gfc.DefaultDCQCNConfig(10*gfc.Gbps)))
		if err := sim.AddFlow(f, 0); err != nil {
			panic(err)
		}
		flows = append(flows, f)
	}

	h1 := topo.MustLookup("H1")
	fmt.Println("t(ms)   GFC port rate   DCQCN rate(H1)  queue(S1<-H1)")
	var sample func()
	sample = func() {
		fmt.Printf("%5.1f   %-15v %-15v %v\n",
			sim.Now().Millis(),
			sim.SenderRate(h1, 0),
			rps[0].Rate(),
			sim.IngressQueue(topo.MustLookup("S1"), 0))
		if sim.Now() < 20*gfc.Millisecond {
			sim.Engine().After(2*gfc.Millisecond, sample)
		}
	}
	sim.Engine().After(100*gfc.Microsecond, sample)
	sim.Run(20 * gfc.Millisecond)

	var total gfc.Size
	for _, f := range flows {
		total += f.Delivered
	}
	fmt.Printf("\naggregate goodput %v over 20ms (bottleneck 10G), drops=%d\n",
		gfc.RateOf(total, sim.Now()), sim.Drops())
}
