package metrics

import (
	"fmt"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// netLayout binds r to a switch s1 (node 1) with n ports, each to its own
// host — h0 (node 0) on port 0 — every ingress holding 100 KB, and returns
// the switch channel indices.
func netLayout(r *Registry, n int) []int {
	topo := topology.New()
	h0, s1 := topo.AddHost("h0"), topo.AddSwitch("s1")
	topo.AddLink(s1, h0, units.Gbps, 0)
	for i := 1; i < n; i++ {
		topo.AddLink(s1, topo.AddHost(fmt.Sprintf("h%d", i)), units.Gbps, 0)
	}
	r.Bind(topo, 100*units.KB, 100*units.KB)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = r.ChannelIndex(1, i)
	}
	return idx
}

func TestCheckNetworkClean(t *testing.T) {
	r := New(Options{})
	netLayout(r, 2)
	b := NetworkBounds{
		MaxOccupancy: 50 * units.KB, MaxDelivered: units.MB, MinDelivered: 1,
		Lossless: true, DeadlockFree: true,
	}
	if e := r.CheckNetwork(b, 1000, 500*units.KB, false); e != nil {
		t.Fatalf("clean run flagged: %v", e)
	}
	// The all-zero bounds assert nothing, whatever the run did.
	if e := r.CheckNetwork(NetworkBounds{}, 1000, units.MB, true); e != nil {
		t.Fatalf("disabled bounds flagged: %v", e)
	}
}

func TestCheckNetworkOccupancyEnvelope(t *testing.T) {
	r := New(Options{})
	idx := netLayout(r, 2)
	hostIdx := r.ChannelIndex(0, 0)
	// The host sink and one switch channel exceed the envelope; only the
	// switch channel may be flagged.
	r.OnAdmit(hostIdx, 10, 80*units.KB, 80*units.KB)
	r.OnAdmit(idx[0], 10, 80*units.KB, 80*units.KB)
	r.OnAdmit(idx[1], 10, 10*units.KB, 10*units.KB)
	b := NetworkBounds{MaxOccupancy: 60 * units.KB}
	e := r.CheckNetwork(b, 2000, 0, false)
	if e == nil || len(e.Violations) != 1 {
		t.Fatalf("violations = %+v, want exactly the switch channel", e)
	}
	v := e.Violations[0]
	if v.Kind != ViolationNetOccupancy || v.NodeName != "s1" || v.Port != 0 {
		t.Fatalf("violation = %+v", v)
	}
	if v.Occupancy != 80*units.KB || v.Limit != 60*units.KB || v.At != 2000 {
		t.Fatalf("violation payload = %+v", v)
	}
	if !strings.Contains(v.String(), "net-occupancy") {
		t.Errorf("String() = %q, want the net-occupancy kind", v.String())
	}
	// The checker recorded nothing into the registry itself.
	if r.Err() != nil || len(r.violations) != 0 {
		t.Fatal("CheckNetwork perturbed the registry's own verdicts")
	}
}

func TestCheckNetworkOccupancyTruncation(t *testing.T) {
	r := New(Options{})
	idx := netLayout(r, maxViolations+10)
	for _, i := range idx {
		r.OnAdmit(i, 10, 90*units.KB, 90*units.KB)
	}
	e := r.CheckNetwork(NetworkBounds{MaxOccupancy: units.KB}, 100, 0, false)
	if e == nil || len(e.Violations) != maxViolations {
		t.Fatalf("reported %d violations, want the %d cap", len(e.Violations), maxViolations)
	}
	if e.Truncated != 10 {
		t.Fatalf("Truncated = %d, want 10", e.Truncated)
	}
	if !strings.Contains(e.Error(), "74 invariant violation(s)") {
		t.Errorf("Error() = %q does not count the truncated tail", e.Error())
	}
}

func TestCheckNetworkScalarBounds(t *testing.T) {
	for _, tc := range []struct {
		name       string
		b          NetworkBounds
		delivered  units.Size
		deadlocked bool
		drop       bool
		kind       ViolationKind
		detail     string
	}{
		{"throughput", NetworkBounds{MaxDelivered: units.KB}, 2 * units.KB, false, false,
			ViolationNetThroughput, "above analytic throughput bound"},
		{"progress", NetworkBounds{MinDelivered: 1}, 0, false, false,
			ViolationNetProgress, "below analytic progress floor"},
		{"loss", NetworkBounds{Lossless: true}, 0, false, true,
			ViolationNetLoss, "predicted lossless"},
		{"deadlock", NetworkBounds{DeadlockFree: true}, 0, true, false,
			ViolationNetDeadlock, "predicted deadlock-free"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(Options{})
			idx := netLayout(r, 1)
			if tc.drop {
				r.OnDrop(idx[0], 50, 1500, 90*units.KB)
			}
			e := r.CheckNetwork(tc.b, 100, tc.delivered, tc.deadlocked)
			if e == nil || len(e.Violations) != 1 {
				t.Fatalf("violations = %+v, want one %v", e, tc.kind)
			}
			v := e.Violations[0]
			if v.Kind != tc.kind || !strings.Contains(v.Detail, tc.detail) {
				t.Fatalf("violation = %+v", v)
			}
		})
	}
}
