package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// TestRegisteredRoundTrip pins the serialisation contract: every registered
// Spec survives Spec → JSON → Spec without loss, so a figure scenario dumped
// to a file and fed back through -scenario reproduces the run exactly.
func TestRegisteredRoundTrip(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			spec, ok := Get(name)
			if !ok {
				t.Fatalf("Get(%q) missing", name)
			}
			data, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Parse(data)
			if err != nil {
				t.Fatalf("re-parsing %q: %v\n%s", name, err, data)
			}
			if !reflect.DeepEqual(*back, spec) {
				t.Fatalf("round trip not lossless:\nwant %+v\ngot  %+v", spec, *back)
			}
		})
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{
		"name": "bad",
		"topology": {"builder": "ring"},
		"workload": {"pattern": "ring-clockwise"},
		"scheme": {"fc": "PFC"},
		"run": {"duration_ns": 1000000},
		"bogus_knob": 7
	}`))
	if err == nil {
		t.Fatal("unknown top-level field accepted")
	}
	if !strings.Contains(err.Error(), "bogus_knob") {
		t.Fatalf("error %q does not name the unknown field", err)
	}
	_, err = Parse([]byte(`{
		"name": "bad",
		"topology": {"builder": "ring", "spokes": 5},
		"workload": {"pattern": "ring-clockwise"},
		"scheme": {"fc": "PFC"},
		"run": {"duration_ns": 1000000}
	}`))
	if err == nil {
		t.Fatal("unknown nested field accepted")
	}
}

func TestParseValidates(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"no duration", `{"name":"x","topology":{"builder":"ring"},"workload":{"pattern":"ring-clockwise"},"scheme":{"fc":"PFC"},"run":{}}`, "duration_ns"},
		{"no workload", `{"name":"x","topology":{"builder":"ring"},"workload":{},"scheme":{"fc":"PFC"},"run":{"duration_ns":1}}`, "pattern, flows or a generator"},
		{"bad fc", `{"name":"x","topology":{"builder":"ring"},"workload":{"pattern":"ring-clockwise"},"scheme":{"fc":"XON/XOFF"},"run":{"duration_ns":1}}`, "unknown fc"},
		{"bad builder", `{"name":"x","topology":{"builder":"torus"},"workload":{"pattern":"ring-clockwise"},"scheme":{"fc":"PFC"},"run":{"duration_ns":1}}`, "unknown builder"},
		{"odd fat-tree", `{"name":"x","topology":{"builder":"fat-tree","k":3},"workload":{"generator":{}},"scheme":{"fc":"PFC"},"run":{"duration_ns":1}}`, "even"},
		{"small ring", `{"name":"x","topology":{"builder":"ring","n":2},"workload":{"pattern":"ring-clockwise"},"scheme":{"fc":"PFC"},"run":{"duration_ns":1}}`, "n >= 3"},
		{"two sources", `{"name":"x","topology":{"builder":"ring"},"workload":{"pattern":"ring-clockwise","generator":{}},"scheme":{"fc":"PFC"},"run":{"duration_ns":1}}`, "mutually exclusive"},
		{"uniform needs size", `{"name":"x","topology":{"builder":"fat-tree","k":4},"workload":{"generator":{"dist":"uniform"}},"scheme":{"fc":"PFC"},"run":{"duration_ns":1}}`, "uniform_bytes"},
		// The fabric carries one lossless class: the class knobs are gone, and
		// the strict decoder names the one a spec still carries.
		{"sim priorities", `{"name":"x","topology":{"builder":"ring"},"workload":{"pattern":"ring-clockwise"},"scheme":{"fc":"PFC"},"sim":{"priorities":2},"run":{"duration_ns":1}}`, `unknown field "priorities"`},
		{"flow priority", `{"name":"x","topology":{"builder":"ring"},"workload":{"flows":[{"src":"H1","dst":"H2","priority":1}]},"scheme":{"fc":"PFC"},"run":{"duration_ns":1}}`, `unknown field "priority"`},
		{"generator priority", `{"name":"x","topology":{"builder":"fat-tree","k":4},"workload":{"generator":{"priority":1}},"scheme":{"fc":"PFC"},"run":{"duration_ns":1}}`, `unknown field "priority"`},
		// A key or value the Spec does not carry is named, not ignored.
		{"feedback jitter", `{"name":"x","topology":{"builder":"ring"},"workload":{"pattern":"ring-clockwise"},"scheme":{"fc":"PFC"},"sim":{"feedback_jitter_ns":1000},"run":{"duration_ns":1}}`, `unknown field "feedback_jitter_ns"`},
		{"jitter seed", `{"name":"x","topology":{"builder":"ring"},"workload":{"pattern":"ring-clockwise"},"scheme":{"fc":"PFC"},"sim":{"jitter_seed":7},"run":{"duration_ns":1}}`, `unknown field "jitter_seed"`},
		{"host queue depth", `{"name":"x","topology":{"builder":"ring"},"workload":{"pattern":"ring-clockwise"},"scheme":{"fc":"PFC"},"sim":{"host_queue_depth":4},"run":{"duration_ns":1}}`, `unknown field "host_queue_depth"`},
		{"routing toward", `{"name":"x","topology":{"builder":"ring"},"routing":{"toward":["H1"]},"workload":{"pattern":"ring-clockwise"},"scheme":{"fc":"PFC"},"run":{"duration_ns":1}}`, `unknown field "toward"`},
		{"spf-toward", `{"name":"x","topology":{"builder":"ring"},"routing":{"policy":"spf-toward"},"workload":{"pattern":"ring-clockwise"},"scheme":{"fc":"PFC"},"run":{"duration_ns":1}}`, `unknown policy "spf-toward"`},
		{"quiesce", `{"name":"x","topology":{"builder":"ring"},"workload":{"pattern":"ring-clockwise"},"scheme":{"fc":"PFC"},"run":{"duration_ns":1,"quiesce":true}}`, `unknown field "quiesce"`},
		{"think time", `{"name":"x","topology":{"builder":"fat-tree","k":4},"workload":{"generator":{"think_ns":1000}},"scheme":{"fc":"PFC"},"run":{"duration_ns":1}}`, `unknown field "think_ns"`},
		{"datamining", `{"name":"x","topology":{"builder":"fat-tree","k":4},"workload":{"generator":{"dist":"datamining"}},"scheme":{"fc":"PFC"},"run":{"duration_ns":1}}`, `unknown generator dist "datamining"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("accepted; want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestRegisteredScenariosBuild compiles every catalogue entry into a network.
// Building is cheap (no simulation), so even the Clos-scale specs stay inside
// -short budgets.
func TestRegisteredScenariosBuild(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			spec, _ := Get(name)
			sim, err := Build(spec, nil)
			if err != nil {
				t.Fatalf("Build(%q): %v", name, err)
			}
			if sim.Net == nil {
				t.Fatal("Build returned nil network")
			}
			if (spec.Run.DetectDeadlock || spec.Run.StopOnDeadlock) && sim.Detector == nil && sim.DCFIT == nil {
				t.Fatal("spec asked for deadlock detection but no detector installed")
			}
			if spec.Run.Detector == "both" && (sim.Detector == nil || sim.DCFIT == nil) {
				t.Fatal("detector \"both\" did not install both detectors")
			}
			if spec.Workload.Generator != nil && sim.Gen == nil {
				t.Fatal("spec has a generator but none was started")
			}
			if n := len(spec.Workload.Flows); n > 0 && len(sim.Flows) != n {
				t.Fatalf("declared %d flows, built %d", n, len(sim.Flows))
			}
		})
	}
}

// invalidSpecs are ring-steady-gfcbuf with one field out of range: a
// negative duration, an unknown detector and a negative wall budget. Parse
// refused each, while Build used to take them — the first then panicked in
// Run, the other two ran under the global detector and with no wall budget.
func invalidSpecs() []Spec {
	base, _ := Get("ring-steady-gfcbuf")
	duration, detector, wall := base, base, base
	duration.Run.DurationNs = -1
	detector.Run.DetectDeadlock, detector.Run.Detector = true, "bogus"
	wall.Limits = &LimitsSpec{MaxWallMs: -5}
	// Two flows that resolve to one ID would share BFC's per-flow queue
	// claim: an equal explicit id, and an explicit id equal to a default.
	sameID, defaultID := twoToOne(GFCBuf), twoToOne(GFCBuf)
	sameID.Workload.Flows[0].ID = 2
	defaultID.Workload.Flows[0].ID = 0
	defaultID.Workload.Flows[1].ID = 1
	return []Spec{duration, detector, wall, sameID, defaultID}
}

// TestBuildRejectsWhatParseRejects pins the one validation: each backend's
// build refuses invalidSpecs with Parse's error, and a topology and table
// supplied through Overrides replace the declared sections' build, not their
// check.
func TestBuildRejectsWhatParseRejects(t *testing.T) {
	overridden := SweepCell(GFCBuf, 4, 1, 1)
	overridden.Topology.K = 3
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	prebuilt := &Overrides{Topo: topo, Table: routing.NewSPF(topo)}
	builds := map[string]func(Spec, *Overrides) (any, error){
		"Build":        func(s Spec, ov *Overrides) (any, error) { return Build(s, ov) },
		"BuildBackend": func(s Spec, ov *Overrides) (any, error) { return BuildBackend(s, ov) },
		"FluidBackend": func(s Spec, ov *Overrides) (any, error) { return FluidBackend{RenderGenerator: true}.Build(s, ov) },
	}
	specs := append(invalidSpecs(), overridden)
	for i, spec := range specs {
		var ov *Overrides
		if i == len(specs)-1 {
			ov = prebuilt
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, perr := Parse(data)
		if perr == nil {
			t.Fatalf("spec %d: Parse accepted it", i)
		}
		for name, build := range builds {
			if _, err := build(spec, ov); err == nil || err.Error() != perr.Error() {
				t.Errorf("spec %d: %s err = %v, want Parse's %q", i, name, err, perr)
			}
		}
	}
}

// TestFCParamsMerge pins the preset-overlay semantics -scenario files rely
// on: non-zero fields win, zero fields inherit.
func TestFCParamsMerge(t *testing.T) {
	base := FCParams{XOFF: 800 * units.KB, XON: 797 * units.KB, B1: 750 * units.KB}
	got := base.merge(FCParams{XON: 100 * units.KB, Refresh: 90 * units.Microsecond})
	if got.XOFF != 800*units.KB || got.XON != 100*units.KB ||
		got.B1 != 750*units.KB || got.Refresh != 90*units.Microsecond {
		t.Fatalf("merge = %+v", got)
	}
}
