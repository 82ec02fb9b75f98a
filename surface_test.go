package gfc_test

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/units"
)

// specUserOnly lists every scenario.Spec JSON key that no declaration in the
// repository sets: a knob only a user's -scenario file can turn. The reach
// gate (reach_test.go) cannot see these — a JSON decoder counts as a setter —
// so TestSpecSurface keeps the list explicit, each entry with the reason the
// knob exists. A key that appears here and nowhere in the docs or tests is
// the next candidate for deletion; a new Spec field lands either in a
// declaration or here, never silently.
var specUserOnly = map[string]string{
	"faults.inline.links[].feedback[].from_ns":  "starts a feedback fault after the run does: loss or delay confined to an epoch, where every preset's lasts the whole run",
	"faults.inline.links[].feedback[].until_ns": "ends a feedback fault before the run does, so the run shows how each scheme recovers from it",
	"scheme.params.b1_bytes":                    "GFC first-stage threshold; ROADMAP 1(c)'s one-knob-at-a-time experiments move it",
	"scheme.params.period_ns":                   "CBFC / time-based GFC feedback period T, the knob of Theorem 5.1",
	"scheme.params.queues":                      "BFC physical queues per channel (default 8)",
	"sim.mtu_bytes":                             "jumbo-frame runs: τ and every headroom term scale with it",
	"sim.scheduling":                            "the switching discipline: ROADMAP 1(c)/(d)'s instrument and the grid that motivates item 1",
	"sim.tx_ring":                               "TX ring depth of scheduling \"blocking\"",
	"topology.capacity_bps":                     "link rate other than 10 Gb/s (the paper's 40/100 G discussion)",
	"topology.delay_ns":                         "link delay other than 1 µs, the other half of τ",
	"workload.flows[].size_bytes":               "finite pinned flows, the only way a hand-written spec measures completion times",
	"workload.flows[].start_ns":                 "staggered onsets for hand-written flows",
	"workload.generator.seed":                   "re-draws the workload on a fixed failure scenario (Spec.Seed moves both)",
	"workload.generator.uniform_bytes":          "size of dist \"uniform\"; Parse requires it with that dist",
}

// declaredSpecs is every Spec the repository itself builds: the registered
// catalogue; each constructor of scenario/builtin.go over the arguments the
// -exp drivers and sweeps pass it (they spell no setup of their own); the
// fields the drivers and the CLI overlay on a declaration before Build; and
// the faults section a faulted ring row or matrix cell declares.
func declaredSpecs() []scenario.Spec {
	var specs []scenario.Spec
	for _, name := range scenario.Names() {
		s, _ := scenario.Get(name)
		specs = append(specs, s)
	}
	fcs := append(scenario.AllFCs(), scenario.GFCConceptual, scenario.BFC)
	for _, fc := range fcs {
		for hosts := 1; hosts <= 2; hosts++ {
			specs = append(specs, scenario.Ring(fc, hosts), scenario.RingFaulted(fc, hosts))
		}
		for _, cross := range []bool{false, true} {
			for _, victim := range []bool{false, true} {
				specs = append(specs, scenario.CaseStudy(fc, cross, victim))
			}
		}
		specs = append(specs,
			scenario.Fig5(fc), scenario.Evolution(fc), scenario.Overhead(fc, 8, 1),
			scenario.Incast(fc), scenario.SweepCell(fc, 4, 4, 1))
	}
	// Overlays: experiments.RunOptions.build and gfcsim -scenario set
	// run.analytic; the fault matrix and ring-formation-bfc run.detector;
	// -backend sim.backend; a fluid sweep repeat sim.fluid_step_ns
	// (experiments.buildFluidRepeat).
	overlay := scenario.SweepCell(scenario.GFCBuf, 4, 4, 1)
	overlay.Run.Analytic = true
	overlay.Run.Detector = "both"
	overlay.Sim.Backend = "fluid"
	overlay.Sim.FluidStepNs = 2 * units.Microsecond
	specs = append(specs, overlay)
	// A faulted ring row (-exp fig9/fig10 -faults) or matrix cell declares
	// its faults on RingFaulted: a preset by name, or a spec file inline,
	// seeded with -seed. Each fault preset stands in for such a file.
	for _, name := range faults.PresetNames() {
		preset, err := faults.Preset(name)
		if err != nil {
			panic(err)
		}
		for _, section := range []scenario.FaultsSpec{{Preset: name, Seed: 1}, {Inline: preset, Seed: 1}} {
			s := scenario.RingFaulted(scenario.GFCBuf, 1)
			s.Faults = &section
			specs = append(specs, s)
		}
	}
	return specs
}

// specKeys walks t's JSON shape and adds every key path under prefix to
// into: "sim.tx_ring", "workload.flows[].src",
// "faults.inline.links[].flaps[].down_at_ns". It descends into the structs of
// the scenario and faults packages; everything else (the units scalars) is a
// leaf.
func specKeys(t reflect.Type, prefix string, into map[string]bool) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	ours := func(t reflect.Type) bool {
		return t.Kind() == reflect.Struct &&
			(t.PkgPath() == reflect.TypeOf(scenario.Spec{}).PkgPath() || t.PkgPath() == reflect.TypeOf(faults.Spec{}).PkgPath())
	}
	if t.Kind() == reflect.Slice && ours(t.Elem()) {
		t, prefix = t.Elem(), prefix+"[]"
	}
	if !ours(t) {
		into[strings.TrimPrefix(prefix, ".")] = true
		return
	}
	for i := 0; i < t.NumField(); i++ {
		key, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		specKeys(t.Field(i).Type, prefix+"."+key, into)
	}
}

// setKeys adds the key paths of every non-zero leaf of the decoded JSON value
// v.
func setKeys(v any, prefix string, into map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			setKeys(e, prefix+"."+k, into)
		}
		return
	case []any:
		if len(x) > 0 {
			if _, nested := x[0].(map[string]any); nested {
				for _, e := range x {
					setKeys(e, prefix+"[]", into)
				}
				return
			}
		}
	}
	if !reflect.ValueOf(v).IsZero() {
		into[strings.TrimPrefix(prefix, ".")] = true
	}
}

// TestDeclaredSpecsValidate holds every Spec the repository builds to the
// validation Build applies, so that check cannot refuse a declaration.
func TestDeclaredSpecsValidate(t *testing.T) {
	for _, s := range declaredSpecs() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestSpecSurface holds the Spec's user-only surface to specUserOnly, both
// ways: a key nothing in the repository sets must be listed with its reason,
// and a listed key something now sets (or that is gone) must be dropped.
func TestSpecSurface(t *testing.T) {
	all, set := map[string]bool{}, map[string]bool{}
	specKeys(reflect.TypeOf(scenario.Spec{}), "", all)
	for _, s := range declaredSpecs() {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var decoded any
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}
		setKeys(decoded, "", set)
	}
	for key := range set {
		if !all[key] {
			t.Errorf("declarations set %q, which the Spec walk does not know — fix specKeys", key)
		}
	}
	var unlisted, stale []string
	for key := range all {
		if _, listed := specUserOnly[key]; !set[key] && !listed {
			unlisted = append(unlisted, key)
		}
	}
	for key := range specUserOnly {
		if set[key] || !all[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(unlisted)
	sort.Strings(stale)
	if len(unlisted) > 0 {
		t.Errorf("%d Spec keys are set by no registered scenario, constructor or driver overlay — use each in a declaration, "+
			"delete it, or list it in specUserOnly with the reason a user needs it:\n  %s", len(unlisted), strings.Join(unlisted, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("%d specUserOnly entries name a key a declaration now sets (or that no longer exists) — drop them:\n  %s",
			len(stale), strings.Join(stale, "\n  "))
	}
}
