package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/topology"
)

// TestDetectorReportsPinned pins what each detector convicts on the
// registered deadlocking scenarios: the instant, the kind, how long the
// reported buffers had been stalled, and the cycle or wedged channel spelled
// in node names.
func TestDetectorReportsPinned(t *testing.T) {
	cases := []struct {
		scenario string
		global   string // "" when the scenario runs no global detector
		dcfit    string // "" when it runs no DCFIT
	}{
		{"ring-formation-pfc-dcfit",
			"circular-wait at 7ms (stalled 5.7126ms): S1->S2 S2->S3 S3->S1",
			"circular-wait at 7ms (stalled 5ms): S1->S2 S2->S3 S3->S1"},
		{"casestudy-pfc",
			"circular-wait at 7ms (stalled 5.274532ms): C1->A3 A3->C2 C2->A7 A7->C1", ""},
		{"evolution-pfc",
			"circular-wait at 26ms (stalled 5.176576ms): C2->A3 A3->E3 E3->A4 A4->C3 C3->A6 A6->E6 E6->A5 A5->C2", ""},
		{"ring-faulted-resume-loss-pfc",
			"wedged-channel at 10ms (stalled 6.824548ms): S2->S3 via S1", ""},
	}
	for _, c := range cases {
		t.Run(c.scenario, func(t *testing.T) {
			spec, ok := Get(c.scenario)
			if !ok {
				t.Fatalf("%s is not registered", c.scenario)
			}
			sim, err := Build(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			sim.Run()
			var global, dcfit string
			if sim.Detector != nil {
				global = spell(sim.Topo, sim.Detector.Deadlocked())
			}
			if sim.DCFIT != nil {
				dcfit = spell(sim.Topo, sim.DCFIT.Deadlocked())
			}
			if global != c.global {
				t.Errorf("global detector: %s, want %s", global, c.global)
			}
			if dcfit != c.dcfit {
				t.Errorf("DCFIT: %s, want %s", dcfit, c.dcfit)
			}
		})
	}
}

// spell renders a report as "kind at T (stalled S): channels", naming every
// node.
func spell(topo *topology.Topology, r *deadlock.Report) string {
	if r == nil {
		return "none"
	}
	var chans []string
	for _, ch := range r.Cycle {
		chans = append(chans, channelName(topo, ch))
	}
	if w := r.Wedged; w != nil {
		chans = append(chans, channelName(topo, w.Ingress)+" via "+topo.Node(w.Via).Name)
	}
	return fmt.Sprintf("%v at %v (stalled %v): %s", r.Kind, r.At, r.StallFor, strings.Join(chans, " "))
}

// channelName spells a channel "From->To". A channel is read as its two
// node fields in declaration order, source first.
func channelName(topo *topology.Topology, ch any) string {
	v := reflect.ValueOf(ch)
	from, to := topology.NodeID(v.Field(0).Int()), topology.NodeID(v.Field(1).Int())
	return topo.Node(from).Name + "->" + topo.Node(to).Name
}
