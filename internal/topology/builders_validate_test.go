package topology

import (
	"strings"
	"testing"
)

// mustPanic runs f and asserts it panics with a message containing want
// (including the offending value, so misuse is diagnosable from the message
// alone).
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T); want string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

func TestBuilderParamValidation(t *testing.T) {
	p := DefaultLinkParams()
	t.Run("fat-tree odd k", func(t *testing.T) {
		mustPanic(t, "got k = 3", func() { FatTree(3, p) })
	})
	t.Run("fat-tree zero k", func(t *testing.T) {
		mustPanic(t, "got k = 0", func() { FatTree(0, p) })
	})
	t.Run("fat-tree negative k", func(t *testing.T) {
		mustPanic(t, "got k = -2", func() { FatTree(-2, p) })
	})
	t.Run("ring too small", func(t *testing.T) {
		mustPanic(t, "got n = 2", func() { Ring(2, p) })
	})
	t.Run("ring zero hosts", func(t *testing.T) {
		mustPanic(t, "got h = 0", func() { RingHosts(3, 0, p) })
	})
	t.Run("linear empty", func(t *testing.T) {
		mustPanic(t, "got n = 0", func() { Linear(0, p) })
	})
	t.Run("dumbbell empty", func(t *testing.T) {
		mustPanic(t, "got n = 0", func() { Dumbbell(0, p) })
	})
}

// TestFatTreeHostCount checks the closed-form k³/4 host count against the
// built topologies across the supported arities, including the k = 8
// Clos-scale scenario (128 hosts).
func TestFatTreeHostCount(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		topo := FatTree(k, DefaultLinkParams())
		want := k * k * k / 4
		if got := len(topo.Hosts()); got != want {
			t.Errorf("k=%d: built %d hosts, k³/4 is %d", k, got, want)
		}
		// The switch census is pinned too: k²/2 edge + k²/2 agg + (k/2)²
		// core.
		wantSwitches := k*k + (k/2)*(k/2)
		got := 0
		for i := 0; i < topo.NumNodes(); i++ {
			if topo.Node(NodeID(i)).Kind == Switch {
				got++
			}
		}
		if got != wantSwitches {
			t.Errorf("k=%d: built %d switches, want %d", k, got, wantSwitches)
		}
	}
}
