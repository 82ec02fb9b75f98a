package scenario

import (
	"context"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/units"
)

// clos3456Schemes mirrors the registration list in builtin.go.
var clos3456Schemes = []FC{PFC, GFCBuf, GFCTime}

// TestClos3456Registered pins the catalogue contract for the k=24 tier:
// all three presets resolve, declare governor limits (including the heap
// guard — mandatory at a scale where one run holds multi-GiB of state), and
// name their scale.
func TestClos3456Registered(t *testing.T) {
	for _, fc := range clos3456Schemes {
		name := "clos3456-" + schemeSlug(fc)
		spec, ok := Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if spec.Topology.K != 24 {
			t.Fatalf("%s: k = %d", name, spec.Topology.K)
		}
		if !strings.Contains(spec.Description, "3456 hosts") {
			t.Fatalf("%s description %q does not state the host count", name, spec.Description)
		}
		l := spec.Limits
		if l == nil || l.MaxEvents == 0 || l.MaxWallMs == 0 || l.StallEvents == 0 {
			t.Fatalf("%s: incomplete governor limits %+v", name, l)
		}
		if l.MaxHeapBytes == 0 {
			t.Fatalf("%s declares no heap guard", name)
		}
		if b := l.Budget(); b.MaxHeap != uint64(l.MaxHeapBytes) {
			t.Fatalf("%s: Budget().MaxHeap = %d, want %d", name, b.MaxHeap, l.MaxHeapBytes)
		}
	}
}

// TestClos3456Smoke builds the k=24 fat-tree (3456 hosts, 720 switches) and
// runs a short horizon per scheme under the spec's declared limits — enough
// to cover build, routing, generator and flow-control at the scale frontier
// without making CI an hours-class job. -short skips it: the build alone is
// ~1s/scheme and the run is event-heavy.
func TestClos3456Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("k=24 build+run is too heavy for -short CI steps")
	}
	d := 20 * units.Microsecond
	if raceEnabled {
		// Time-based GFC delivers its first byte between 8 and 10 µs.
		d = 10 * units.Microsecond
	}
	for _, fc := range clos3456Schemes {
		fc := fc
		t.Run(string(fc), func(t *testing.T) {
			spec, _ := Get("clos3456-" + schemeSlug(fc))
			spec.Run.DurationNs = d
			reg := metrics.New(metrics.Options{})
			sim, err := Build(spec, &Overrides{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(sim.Topo.Hosts()); got != 3456 {
				t.Fatalf("clos3456 has %d hosts, want 3456", got)
			}
			res, err := sim.RunBounded(context.Background(), netsim.Budget{})
			if err != nil {
				t.Fatalf("governor tripped inside the scenario's own limits: %v", err)
			}
			if res.End < d {
				t.Fatalf("run ended at %v, want %v", res.End, d)
			}
			if res.Delivered == 0 {
				t.Fatal("no traffic delivered")
			}
			if res.Drops != 0 {
				t.Errorf("%s: %d drops on a lossless fabric", fc, res.Drops)
			}
			t.Logf("%s: delivered %v, drops %d, deadlocked %v", fc, res.Delivered, res.Drops, res.Deadlocked)
		})
	}
}
