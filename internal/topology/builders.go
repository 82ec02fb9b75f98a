package topology

import (
	"fmt"
	"math/rand"

	"github.com/gfcsim/gfc/internal/units"
)

// LinkParams are the capacity and propagation delay applied to every link a
// builder creates.
type LinkParams struct {
	Capacity units.Rate
	Delay    units.Time
}

// DefaultLinkParams matches the paper's simulations: 10 Gb/s links with 1 µs
// propagation delay.
func DefaultLinkParams() LinkParams {
	return LinkParams{Capacity: 10 * units.Gbps, Delay: 1 * units.Microsecond}
}

// Ring builds the deadlock-prone topology of Figure 1: n switches joined in
// a cycle, each with one attached host named H1..Hn. The paper uses n = 3.
func Ring(n int, p LinkParams) *Topology { return RingHosts(n, 1, p) }

// RingHosts builds an n-switch ring with h hosts per switch. Hosts on
// switch i are named H<i+1> (first host) then H<i+1>b, H<i+1>c, … With
// h ≥ 2 the ring egresses are shared by more local injectors than transit
// channels, so clockwise transit traffic is structurally squeezed below its
// arrival rate and the cyclic buffers fill — the deterministic analogue of
// the timing-noise-driven buffer fill in the paper's software testbed.
func RingHosts(n, h int, p LinkParams) *Topology {
	if n < 3 {
		panic(fmt.Sprintf("topology: ring needs at least 3 switches, got n = %d", n))
	}
	if h < 1 {
		panic(fmt.Sprintf("topology: ring needs at least 1 host per switch, got h = %d", h))
	}
	t := New()
	sw := make([]NodeID, n)
	for i := 0; i < n; i++ {
		sw[i] = t.AddSwitch(fmt.Sprintf("S%d", i+1))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < h; j++ {
			hn := fmt.Sprintf("H%d", i+1)
			if j > 0 {
				hn += string(rune('a' + j))
			}
			host := t.AddHost(hn)
			t.AddLink(host, sw[i], p.Capacity, p.Delay)
		}
	}
	for i := 0; i < n; i++ {
		t.AddLink(sw[i], sw[(i+1)%n], p.Capacity, p.Delay)
	}
	return t
}

// FatTree builds a standard k-ary fat-tree (Al-Fares et al., SIGCOMM 2008):
// k pods, each with k/2 edge and k/2 aggregation switches; (k/2)² core
// switches; k/2 hosts per edge switch, for k³/4 hosts total.
//
// Naming follows Figure 11 of the GFC paper: hosts H0..H(k³/4−1), edge
// switches E1..E(k²/2), aggregation switches A1..A(k²/2) and core switches
// C1..C((k/2)²). Aggregation switch j (0-based within its pod) connects to
// core group j, i.e. cores j·k/2 .. j·k/2+k/2−1.
func FatTree(k int, p LinkParams) *Topology {
	half := fatTreeHalf(k)
	t := New()

	cores := make([]NodeID, half*half)
	for i := range cores {
		cores[i] = t.AddSwitch(fmt.Sprintf("C%d", i+1))
		t.SetLayer(cores[i], "core", -1)
	}

	hostN := 0
	for pod := 0; pod < k; pod++ {
		aggs := make([]NodeID, half)
		edges := make([]NodeID, half)
		for j := 0; j < half; j++ {
			aggs[j] = t.AddSwitch(fmt.Sprintf("A%d", pod*half+j+1))
			t.SetLayer(aggs[j], "agg", pod)
		}
		for j := 0; j < half; j++ {
			edges[j] = t.AddSwitch(fmt.Sprintf("E%d", pod*half+j+1))
			t.SetLayer(edges[j], "edge", pod)
		}
		fatTreePodLinks(half, pod, func(l FatTreeLink) {
			if l.Core {
				t.AddLink(aggs[l.Lower], cores[l.Lower*half+l.Upper], p.Capacity, p.Delay)
			} else {
				t.AddLink(edges[l.Lower], aggs[l.Upper], p.Capacity, p.Delay)
			}
		})
		// Hosts.
		for _, e := range edges {
			for h := 0; h < half; h++ {
				host := t.AddHost(fmt.Sprintf("H%d", hostN))
				t.SetLayer(host, "host", pod)
				hostN++
				t.AddLink(host, e, p.Capacity, p.Delay)
			}
		}
	}
	return t
}

// FatTreeLink is one switch-to-switch link of FatTree(k), by its place in
// pod Pod: edge Lower (0-based within the pod) to the pod's agg Upper, or,
// with Core set, agg Lower to core Upper of its group (core Lower·k/2 +
// Upper). ID is the link's ID in the built topology.
type FatTreeLink struct {
	ID           LinkID
	Pod          int
	Lower, Upper int
	Core         bool
}

// fatTreeHalf returns k/2, or panics unless k is a valid fat-tree arity.
func fatTreeHalf(k int) int {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topology: fat-tree arity must be even and >= 2, got k = %d", k))
	}
	return k / 2
}

// fatTreePodLinks calls fn for each switch-to-switch link of pod in a
// FatTree with k/2 = half, in link-ID order: the edge–agg bipartite graph
// (edge-major), then each agg's links to its core group. The pod's host
// links follow them, so a pod spans 3·half² link IDs.
func fatTreePodLinks(half, pod int, fn func(FatTreeLink)) {
	id := LinkID(3 * half * half * pod)
	for _, core := range [2]bool{false, true} {
		for lo := 0; lo < half; lo++ {
			for hi := 0; hi < half; hi++ {
				fn(FatTreeLink{ID: id, Pod: pod, Lower: lo, Upper: hi, Core: core})
				id++
			}
		}
	}
}

// FatTreeLinks calls fn for each switch-to-switch link of FatTree(k), in
// link-ID order.
func FatTreeLinks(k int, fn func(FatTreeLink)) {
	half := fatTreeHalf(k)
	for pod := 0; pod < k; pod++ {
		fatTreePodLinks(half, pod, fn)
	}
}

// DrawFatTreeFailures draws the failures FailRandomLinks(rng, prob) makes on
// a fresh FatTree(k) without building the tree: it consumes rng exactly as
// that call does, one Float64 per switch-to-switch link in link-ID order, and
// calls fail for each link that fails.
func DrawFatTreeFailures(k int, rng *rand.Rand, prob float64, fail func(FatTreeLink)) {
	FatTreeLinks(k, func(l FatTreeLink) {
		if rng.Float64() < prob {
			fail(l)
		}
	})
}

// Dumbbell builds the congestion-control topology of the Figure 20 study:
// senders H1..Hn attached to switch S1, S1 joined to S2, and the single
// receiver Hr attached to S2. All n senders share the S1→S2 bottleneck.
func Dumbbell(n int, p LinkParams) *Topology {
	if n < 1 {
		panic(fmt.Sprintf("topology: dumbbell needs at least one sender, got n = %d", n))
	}
	t := New()
	s1 := t.AddSwitch("S1")
	s2 := t.AddSwitch("S2")
	for i := 1; i <= n; i++ {
		h := t.AddHost(fmt.Sprintf("H%d", i))
		t.AddLink(h, s1, p.Capacity, p.Delay)
	}
	r := t.AddHost(fmt.Sprintf("H%d", n+1))
	t.AddLink(s1, s2, p.Capacity, p.Delay)
	t.AddLink(r, s2, p.Capacity, p.Delay)
	return t
}

// Linear builds a chain of n switches, each with one host: H1-S1-S2-...-Sn-Hn.
// Useful for hop-by-hop backpressure tests with no CBD.
func Linear(n int, p LinkParams) *Topology {
	if n < 1 {
		panic(fmt.Sprintf("topology: linear chain needs at least one switch, got n = %d", n))
	}
	t := New()
	prev := None
	for i := 1; i <= n; i++ {
		s := t.AddSwitch(fmt.Sprintf("S%d", i))
		h := t.AddHost(fmt.Sprintf("H%d", i))
		t.AddLink(h, s, p.Capacity, p.Delay)
		if prev != None {
			t.AddLink(prev, s, p.Capacity, p.Delay)
		}
		prev = s
	}
	return t
}

// TwoToOne builds the 2-to-1 congestion scenario of Figure 5: two senders
// and one receiver on a single switch.
func TwoToOne(p LinkParams) *Topology {
	t := New()
	s := t.AddSwitch("S1")
	for _, n := range []string{"H1", "H2", "H3"} {
		h := t.AddHost(n)
		t.AddLink(h, s, p.Capacity, p.Delay)
	}
	return t
}
