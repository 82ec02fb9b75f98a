package netsim

import (
	"context"
	"runtime/debug"
	"testing"

	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// congested builds the 2:1 fabric of BenchmarkCongestedFabric with both flows
// added and runs it for a millisecond.
func congested(t *testing.T) *Network {
	t.Helper()
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	n, err := New(topo, baseConfig(gfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	dst := topo.MustLookup("H3")
	for i, name := range []string{"H1", "H2"} {
		src := topo.MustLookup(name)
		path, err := tab.Path(src, dst, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AddFlow(&Flow{ID: i + 1, Src: src, Dst: dst, Path: path}, 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(units.Millisecond)
	return n
}

// chunks lists the arena chunks n carved.
func chunks(n *Network) map[*pktBlock]bool {
	set := map[*pktBlock]bool{}
	for b := n.blocks; b != nil; b = b.prev {
		set[b] = true
	}
	return set
}

// TestCloseRefusesUse pins Close's contract: a closed network keeps its
// totals and readers, refuses to run or take a flow, and a second Close does
// nothing.
func TestCloseRefusesUse(t *testing.T) {
	n := congested(t)
	delivered, now := n.TotalDelivered(), n.Now()
	n.Close()
	n.Close()
	if n.TotalDelivered() != delivered || n.Now() != now || len(n.Flows()) != 2 {
		t.Errorf("closed network reports delivered %v at %v with %d flows, want %v at %v with 2",
			n.TotalDelivered(), n.Now(), len(n.Flows()), delivered, now)
	}
	_, _ = n.Snapshot(), n.AppendIngressStates(nil) // read no packet, so still answer
	for name, use := range map[string]func(){
		"Run": func() { n.Run(2 * units.Millisecond) },
		"RunBounded": func() {
			_ = n.RunBounded(context.Background(), 2*units.Millisecond, Budget{})
		},
		"AddFlow": func() { _ = n.AddFlow(n.Flows()[0], n.Now()) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "netsim: network closed" {
					t.Errorf("%s on a closed network: recovered %v", name, r)
				}
			}()
			use()
		}()
	}
}

// TestClosedChunksCarveTheNextNetwork: a network built after another closed
// carves its packets from the closed one's chunks and allocates none, and
// runs as the first did. The collector is off, which would otherwise empty
// the pool between the two; the race detector drops pooled chunks on
// purpose.
func TestClosedChunksCarveTheNextNetwork(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first := congested(t)
	carved, delivered := chunks(first), first.TotalDelivered()
	if len(carved) == 0 {
		t.Fatal("the first network carved no chunk")
	}
	first.Close()
	if first.blocks != nil || first.carved != 0 || first.freeHead != nil {
		t.Error("a closed network still holds packet storage")
	}
	for b := range carved {
		if *b != (pktBlock{}) {
			t.Fatal("a closed network's chunk was handed on unzeroed")
		}
	}
	second := congested(t)
	defer second.Close()
	if second.TotalDelivered() != delivered {
		t.Errorf("rebuilt network delivered %v, the first %v", second.TotalDelivered(), delivered)
	}
	reused := chunks(second)
	for b := range reused {
		if !carved[b] {
			t.Fatal("the rebuilt network allocated a chunk")
		}
	}
	if len(reused) != len(carved) {
		t.Errorf("rebuilt network carved %d chunks, the first %d", len(reused), len(carved))
	}
}
