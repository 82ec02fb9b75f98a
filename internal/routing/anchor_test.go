package routing

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/gfcsim/gfc/internal/topology"
)

// perHostNextHops is the next-hop rule over d, a distance row of dst's own:
// n's live links to a peer one hop closer that is a switch or dst itself, in
// ascending (peer, port) order.
func perHostNextHops(out []topology.Attachment, topo *topology.Topology, d []int32, n, dst topology.NodeID) []topology.Attachment {
	if n == dst || d[n] >= unreachable {
		return out
	}
	for _, at := range topo.Ports(n) {
		if d[at.Peer] == d[n]-1 && !at.Link.Failed && (at.Peer == dst || topo.Node(at.Peer).Kind == topology.Switch) {
			out = append(out, at)
		}
	}
	if len(out) > 1 {
		slices.SortFunc(out, func(a, b topology.Attachment) int {
			return cmp.Or(cmp.Compare(a.Peer, b.Peer), cmp.Compare(a.Port, b.Port))
		})
	}
	return out
}

// checkPerHostBFS builds NewSPFToward(topo, dsts) and a bfsFrom row of every
// destination's own, runs fail (nil for none) so the table goes stale, and
// requires Distance and the next-hop rows (Rows, appendNextHops laid out)
// toward every destination, from every node, to read what the destination's
// own row gives. It returns how many destinations share an anchor's row.
func checkPerHostBFS(t *testing.T, name string, topo *topology.Topology, dsts []topology.NodeID, fail func()) (anchored int) {
	t.Helper()
	tab := NewSPFToward(topo, dsts)
	n := topo.NumNodes()
	own := make(map[topology.NodeID][]int32, len(dsts))
	queue := make([]topology.NodeID, 0, n)
	for _, dst := range dsts {
		own[dst] = make([]int32, n)
		bfsFrom(topo, dst, own[dst], queue)
		if tab.via[dst] != dst {
			anchored++
		}
	}
	if fail != nil {
		fail()
	}
	rows := tab.Rows()
	var want []topology.Attachment
	for dst, d := range own {
		rows.Toward(dst)
		for i := 0; i < n; i++ {
			node := topology.NodeID(i)
			hops, ok := tab.Distance(node, dst)
			if ok != (d[node] < unreachable) || ok && hops != int(d[node]) {
				t.Fatalf("%s: Distance(%d, %d) = %d, %v; its own row says %d", name, node, dst, hops, ok, d[node])
			}
			want = perHostNextHops(want[:0], topo, d, node, dst)
			if got := rows.Row(node); !slices.Equal(got, want) {
				t.Fatalf("%s: next hops of %d toward %d = %v; its own row gives %v", name, node, dst, got, want)
			}
		}
	}
	return anchored
}

// TestAnchoredRowsMatchPerHostBFS pins the shared rows to what one BFS per
// destination gives: on random failed fat-trees (k=4, 8 and 16, 20 seeds
// each, p=0.05; every fourth table goes stale), and on a hand-built fabric
// whose hosts take every fallback to a row of their own — dual-homed, two
// links to one switch, a failed only link, attached to another host — beside
// a single-homed host and a switch destination that share one row.
func TestAnchoredRowsMatchPerHostBFS(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			topo := topology.FatTree(k, topology.DefaultLinkParams())
			topo.FailRandomLinks(rng, 0.05)
			var fail func()
			if seed%4 == 3 {
				fail = func() { topo.FailRandomLinks(rng, 0.05) }
			}
			hosts := topo.Hosts()
			name := fmt.Sprintf("k=%d seed=%d", k, seed)
			if a := checkPerHostBFS(t, name, topo, hosts, fail); a < len(hosts)*9/10 {
				t.Fatalf("%s: only %d of %d hosts share an anchor's row", name, a, len(hosts))
			}
		}
	}

	lp := topology.DefaultLinkParams()
	topo := topology.New()
	s1, s2, s3 := topo.AddSwitch("S1"), topo.AddSwitch("S2"), topo.AddSwitch("S3")
	single, dual, twice := topo.AddHost("single"), topo.AddHost("dual"), topo.AddHost("twice")
	cut, behind, front := topo.AddHost("cut"), topo.AddHost("behind"), topo.AddHost("front")
	for _, l := range [][2]topology.NodeID{
		{s1, s2}, {s2, s3}, {s3, s1},
		{single, s1}, {dual, s2}, {dual, s3}, {twice, s3}, {twice, s3},
		{cut, s2}, {behind, front}, {front, s1},
	} {
		topo.AddLink(l[0], l[1], lp.Capacity, lp.Delay)
	}
	topo.FailLinkBetween("cut", "S2")
	dsts := []topology.NodeID{single, dual, twice, cut, behind, front, s1}
	if a := checkPerHostBFS(t, "hand-built", topo, dsts, nil); a != 1 {
		t.Fatalf("hand-built: %d destinations share an anchor's row, want 1 (single on S1)", a)
	}
	tab := NewSPFToward(topo, dsts)
	if tab.via[single] != s1 || tab.via[s1] != s1 {
		t.Fatalf("hand-built: single reads %d's row, S1 its own at %d; want both S1's", tab.via[single], tab.via[s1])
	}
	rows := 0
	for _, r := range tab.row {
		if r != nil {
			rows++
		}
	}
	if rows != len(dsts)-1 {
		t.Fatalf("hand-built: %d BFS rows for %d destinations, want %d", rows, len(dsts), len(dsts)-1)
	}
	if checkPerHostBFS(t, "hand-built, stale", topo, dsts, func() { topo.FailLinkBetween("S1", "S2") }) != 1 {
		t.Fatal("hand-built, stale: the anchors moved")
	}
}
