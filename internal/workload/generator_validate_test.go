package workload

import (
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

func validationFixture(t *testing.T) (*netsim.Network, *routing.Table, *topology.Topology) {
	t.Helper()
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	net, err := netsim.New(topo, netsim.Config{
		BufferSize:  300 * units.KB,
		FlowControl: flowcontrol.NewGFCBuffer(flowcontrol.GFCBufferConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, routing.NewSPF(topo), topo
}

func TestGeneratorValidation(t *testing.T) {
	net, tab, topo := validationFixture(t)
	cases := []struct {
		name string
		gen  *Generator
		want string // substring of the error
	}{
		{"nil net", func() *Generator {
			g := NewGenerator(nil, tab, Enterprise(), EdgeRacks(topo), 1)
			return g
		}(), "Net is nil"},
		{"nil table", NewGenerator(net, nil, Enterprise(), EdgeRacks(topo), 1), "Table is nil"},
		{"nil dist", NewGenerator(net, tab, nil, EdgeRacks(topo), 1), "Dist is nil"},
		{"nil racks", NewGenerator(net, tab, Enterprise(), nil, 1), "Racks is nil"},
		{"nil rng", func() *Generator {
			g := NewGenerator(net, tab, Enterprise(), EdgeRacks(topo), 1)
			g.Rng = nil
			return g
		}(), "Rng is nil"},
		{"zero uniform size", NewGenerator(net, tab, Uniform(0), EdgeRacks(topo), 1), "non-positive size"},
		{"negative uniform size", NewGenerator(net, tab, Uniform(-4*units.KB), EdgeRacks(topo), 1), "non-positive size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.gen.Start()
			if err == nil {
				t.Fatalf("Start() succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Start() error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSizeDistValidateBoundaries(t *testing.T) {
	if err := Uniform(1 * units.Byte).Validate(); err != nil {
		t.Fatalf("Uniform(1): %v", err)
	}
	if err := Enterprise().Validate(); err != nil {
		t.Fatalf("Enterprise(): %v", err)
	}
	if err := Uniform(0).Validate(); err == nil {
		t.Fatal("Uniform(0) validated; want non-positive size error")
	}
	if err := (&SizeDist{}).Validate(); err == nil {
		t.Fatal("empty distribution validated; want knot-count error")
	}
}

// TestGeneratorFlowsPerHostDefault pins the <= 0 → 1 defaulting: zero and
// negative intensities behave exactly like the paper's one-flow-per-host
// workload.
func TestGeneratorFlowsPerHostDefault(t *testing.T) {
	launched := func(perHost int) int {
		net, tab, topo := validationFixture(t)
		g := NewGenerator(net, tab, Uniform(100*units.MB), EdgeRacks(topo), 7)
		g.FlowsPerHost = perHost
		if err := g.Start(); err != nil {
			t.Fatal(err)
		}
		// The flows are huge, so none complete instantly: the initial
		// launch count is exactly hosts × effective-intensity.
		return len(net.Flows())
	}
	one := launched(1)
	if got := launched(0); got != one {
		t.Fatalf("FlowsPerHost=0 launched %d flows, want %d (default 1)", got, one)
	}
	if got := launched(-3); got != one {
		t.Fatalf("FlowsPerHost=-3 launched %d flows, want %d (default 1)", got, one)
	}
	if got := launched(2); got != 2*one {
		t.Fatalf("FlowsPerHost=2 launched %d flows, want %d", got, 2*one)
	}
}
