package netsim

import (
	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// BindRegistry binds reg to topo's channel layout under the default-filled
// cfg — every node, every port (failed links included), in (node, port)
// order, switch ports at cfg.BufferSize and host ports at the host allocation
// — and installs on every live channel the theorem ceiling and stage-table
// check its flow control warrants. bound reports, for the channel into (node,
// port), the rate mapping's ceiling B_m (0: the scheme has none) and its stage
// table (nil: not staged).
//
// New calls it with its bank's Bound; a backend that simulates the same
// network without netsim (the fluid compiler) calls it with its resolved
// thresholds, so a registry asserts the same invariants and ChannelIndex,
// exports and reports mean the same thing whichever engine filled it.
func BindRegistry(reg *metrics.Registry, topo *topology.Topology, cfg Config,
	bound func(node topology.NodeID, port int) (units.Size, *core.StageTable)) {
	infos := make([]metrics.NodeInfo, topo.NumNodes())
	for id := range infos {
		tn := topo.Node(topology.NodeID(id))
		ats := topo.Ports(tn.ID)
		info := metrics.NodeInfo{
			ID: tn.ID, Name: tn.Name,
			Host:  tn.Kind == topology.Host,
			Ports: make([]metrics.PortInfo, len(ats)),
		}
		for i, at := range ats {
			info.Ports[i] = metrics.PortInfo{
				PeerName: topo.Node(at.Peer).Name,
				Buffer:   cfg.ingressBuffer(tn.Kind),
			}
		}
		infos[id] = info
	}
	reg.Bind(infos)
	for _, info := range infos {
		for i, at := range topo.Ports(info.ID) {
			if at.Link.Failed {
				continue
			}
			bm, table := bound(info.ID, i)
			idx := reg.ChannelIndex(info.ID, i)
			if bm > 0 {
				ceil, _ := flowcontrol.OccupancyCeiling(bm, info.Ports[i].Buffer, cfg.MTU)
				reg.SetCeiling(idx, ceil)
			}
			if table != nil {
				reg.CheckStageTable(idx, table)
			}
		}
	}
}
