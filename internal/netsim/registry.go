package netsim

import (
	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// BindRegistry binds reg to topo's channels under the default-filled cfg —
// switch ports at cfg.BufferSize, host ports at the host allocation — and
// installs on every live channel the theorem ceiling and stage-table check
// its flow control warrants. bound reports, for the channel into (node,
// port), the rate mapping's ceiling B_m (0: the scheme has none) and its stage
// table (nil: not staged).
//
// New calls it with its bank's Bound; a backend that simulates the same
// network without netsim (the fluid compiler) calls it with its resolved
// thresholds, so a registry asserts the same invariants and its exports and
// reports mean the same thing whichever engine filled it.
func BindRegistry(reg *metrics.Registry, topo *topology.Topology, cfg Config,
	bound func(node topology.NodeID, port int) (units.Size, *core.StageTable)) {
	reg.Bind(topo, cfg.BufferSize, hostBuffer)
	for id := range topology.NodeID(topo.NumNodes()) {
		buffer := cfg.ingressBuffer(topo.Node(id).Kind)
		for i, at := range topo.Ports(id) {
			if at.Link.Failed {
				continue
			}
			bm, table := bound(id, i)
			idx := reg.ChannelIndex(id, i)
			if bm > 0 {
				ceil, _ := flowcontrol.OccupancyCeiling(bm, buffer, cfg.MTU)
				reg.SetCeiling(idx, ceil)
			}
			if table != nil {
				reg.CheckStageTable(idx, table)
			}
		}
	}
}
