package routing

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// diamond builds H1–S1–{S2,S3}–S4–H2 with the four fabric links inserted in
// the given order (indices into the canonical link list). The node set — and
// hence every NodeID — is identical across permutations; only the adjacency
// (port) order varies.
func diamond(order []int) *topology.Topology {
	topo := topology.New()
	h1 := topo.AddHost("H1")
	s1 := topo.AddSwitch("S1")
	s2 := topo.AddSwitch("S2")
	s3 := topo.AddSwitch("S3")
	s4 := topo.AddSwitch("S4")
	h2 := topo.AddHost("H2")
	links := [][2]topology.NodeID{
		{s1, s2}, {s1, s3}, {s2, s4}, {s3, s4},
	}
	topo.AddLink(h1, s1, 10*units.Gbps, units.Microsecond)
	for _, i := range order {
		topo.AddLink(links[i][0], links[i][1], 10*units.Gbps, units.Microsecond)
	}
	topo.AddLink(s4, h2, 10*units.Gbps, units.Microsecond)
	return topo
}

// TestNextHopsInsertionOrderIndependent is the equal-cost tie-break
// regression test: the ECMP candidate list (and therefore every hashed path
// choice) must not depend on the order links were added to the topology.
func TestNextHopsInsertionOrderIndependent(t *testing.T) {
	orders := [][]int{
		{0, 1, 2, 3},
		{1, 0, 3, 2},
		{3, 2, 1, 0},
		{2, 3, 0, 1},
		{1, 3, 0, 2},
	}
	type pick struct {
		hops  []topology.NodeID
		paths map[uint64]string
	}
	var want *pick
	for _, order := range orders {
		topo := diamond(order)
		tab := NewSPF(topo)
		s1 := topo.MustLookup("S1")
		h1 := topo.MustLookup("H1")
		h2 := topo.MustLookup("H2")

		nh := tab.appendNextHops(nil, s1, h2)
		if len(nh) != 2 {
			t.Fatalf("order %v: NextHops(S1,H2) has %d entries, want 2", order, len(nh))
		}
		got := &pick{paths: map[uint64]string{}}
		for _, at := range nh {
			got.hops = append(got.hops, at.Peer)
		}
		for i := 0; i+1 < len(got.hops); i++ {
			if got.hops[i] >= got.hops[i+1] {
				t.Fatalf("order %v: NextHops peers not ascending: %v", order, got.hops)
			}
		}
		for key := uint64(0); key < 64; key++ {
			path, err := tab.Path(h1, h2, key)
			if err != nil {
				t.Fatalf("order %v key %d: %v", order, key, err)
			}
			var s string
			for _, hop := range path {
				s += topo.Node(hop.Node).Name + ">"
			}
			got.paths[key] = s
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want.hops {
			if got.hops[i] != want.hops[i] {
				t.Fatalf("order %v: NextHops = %v, want %v (insertion order leaked into ECMP)",
					order, got.hops, want.hops)
			}
		}
		for key, p := range want.paths {
			if got.paths[key] != p {
				t.Fatalf("order %v key %d: path %q, want %q (insertion order leaked into ECMP)",
					order, key, got.paths[key], p)
			}
		}
	}
}

// appendRowsPath appends to path the route a flow keyed by flowKey takes from
// src to dst over rows built Toward(dst), hashing each hop as NextHop does,
// and reports whether the whole route resolved; on false the appended hops are
// a dead-ended prefix.
func appendRowsPath(rows *Rows, path []Hop, src, dst topology.NodeID, flowKey uint64) ([]Hop, bool) {
	for n := src; n != dst; {
		row := rows.Row(n)
		if len(row) == 0 {
			return path, false
		}
		at := row[pick(flowKey, n, dst, len(row))]
		path = append(path, Hop{Node: n, Port: at.Port, Link: at.Link})
		n = at.Peer
	}
	return path, true
}

// TestRowsWalkMatchesPath pins the three readers of the next-hop rule to one
// another on random failed fat-trees (k=4 and some k=8, three failure
// probabilities, full and partial tables): every Row is NextHops, a hashed
// walk over Rows returns Table.Path hop for hop and fails exactly when Path
// does, NextHop is NextHops-then-index, and NextHops is in strictly ascending
// (peer, port) order.
func TestRowsWalkMatchesPath(t *testing.T) {
	probs := []float64{0.05, 0.15, 0.25}
	for seed := int64(0); seed < 228; seed++ {
		k := 4
		if seed >= 216 {
			k = 8
		}
		rng := rand.New(rand.NewSource(seed))
		topo := topology.FatTree(k, topology.DefaultLinkParams())
		topo.FailRandomLinks(rng, probs[seed%3])
		hosts := topo.Hosts()
		tab := NewSPF(topo)
		if seed%4 == 3 {
			// Some destinations unrouted.
			tab = NewSPFToward(topo, hosts[:len(hosts)/2])
		}
		if seed%8 == 5 {
			// A stale table: routes dead-end at a link that failed
			// after it was built.
			topo.FailRandomLinks(rng, 0.1)
		}
		rows := tab.Rows()
		var walk []Hop
		for _, dst := range hosts {
			routed := rows.Toward(dst)
			for n := 0; n < topo.NumNodes(); n++ {
				n := topology.NodeID(n)
				nh := tab.appendNextHops(nil, n, dst)
				if !slices.Equal(rows.Row(n), nh) {
					t.Fatalf("seed %d: Row(%d) toward %d is not NextHops", seed, n, dst)
				}
				for i := 1; i < len(nh); i++ {
					a, b := nh[i-1], nh[i]
					if a.Peer > b.Peer || (a.Peer == b.Peer && a.Port >= b.Port) {
						t.Fatalf("seed %d: NextHops(%d,%d) out of (peer, port) order", seed, n, dst)
					}
				}
				key := rng.Uint64()
				at, ok := tab.NextHop(n, dst, key)
				if ok != (len(nh) > 0) {
					t.Fatalf("seed %d: NextHop(%d,%d) ok=%v with %d next hops", seed, n, dst, ok, len(nh))
				}
				if ok && at != nh[mix(key^uint64(n)<<32^uint64(dst))%uint64(len(nh))] {
					t.Fatalf("seed %d: NextHop(%d,%d) is not NextHops-then-index", seed, n, dst)
				}
			}
			for _, src := range hosts {
				if src == dst {
					continue
				}
				key := rng.Uint64()
				want, err := tab.Path(src, dst, key)
				var ok bool
				walk, ok = appendRowsPath(rows, walk[:0], src, dst, key)
				if ok != (err == nil) || (!routed && ok) {
					t.Fatalf("seed %d %d->%d: walk ok=%v, Path err=%v", seed, src, dst, ok, err)
				}
				if ok && !slices.Equal(walk, want) {
					t.Fatalf("seed %d %d->%d: walk %v, Path %v", seed, src, dst, walk, want)
				}
			}
		}
	}
}
