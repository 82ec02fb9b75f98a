package scenario

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/units"
)

// userSpecExample returns the body of EXPERIMENTS.md's first file block — the
// spec the document teaches a user to write.
func userSpecExample(t testing.TB) []byte {
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "<!-- file ")
	if ok {
		_, rest, ok = strings.Cut(rest, "```json\n")
	}
	body, _, closed := strings.Cut(rest, "```")
	if !ok || !closed {
		t.Fatal("EXPERIMENTS.md has no <!-- file --> json block")
	}
	return []byte(body)
}

// affordable reports whether one fuzz iteration can build s: a topology
// within a few times the catalogue's k=8 scale and feedback lags the fluid
// solver can hold. No governor budget covers Build, so these stay harness
// bounds, not limits on what a user may declare; the run itself is bounded by
// the limits block FuzzSpec gives every spec.
func affordable(s *Spec) bool {
	t := s.Topology
	for _, n := range []int{t.K, t.N, t.HostsPerSwitch} {
		if n > 64 {
			return false
		}
	}
	if t.HostCount() > 128 || len(s.Workload.Flows) > 256 {
		return false
	}
	// The fluid solver keeps one history entry per step of feedback lag.
	for _, d := range []units.Time{t.DelayNs, s.Sim.TauNs, s.Sim.ProcDelayNs, s.Scheme.Params.Period} {
		if d > units.Millisecond {
			return false
		}
	}
	return s.Sim.FluidStepNs == 0 || s.Sim.FluidStepNs >= 100*units.Nanosecond
}

// FuzzSpec feeds arbitrary JSON through the public entry — Parse's strict
// decoder, then Build on the engine the spec names, then a short run — which
// must end in an error or a result, never a panic. The run is bounded the way
// a user bounds one: its limits block is overwritten with the harness caps
// and no caller budget is passed. A spec Validate rejects must be rejected by
// BuildBackend too, before it builds anything. The seeds are every registered
// scenario, the user spec EXPERIMENTS.md documents and invalidSpecs, in that
// order.
func FuzzSpec(f *testing.F) {
	add := func(s Spec) {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, name := range Names() {
		s, _ := Get(name)
		add(s)
	}
	f.Add(userSpecExample(f))
	for _, s := range invalidSpecs() {
		add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decode(data)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			if _, err := BuildBackend(*spec, nil); err == nil {
				t.Fatalf("BuildBackend accepted a spec Validate rejects: %v", verr)
			}
			return
		}
		if !affordable(spec) {
			t.Skip("too large for one fuzz iteration")
		}
		spec.Run.DurationNs = min(spec.Run.DurationNs, 200*units.Microsecond)
		spec.Limits = &LimitsSpec{MaxEvents: 200_000, MaxWallMs: 2000}
		r, err := BuildBackend(*spec, nil)
		if err != nil {
			return
		}
		res, err := r.RunBounded(context.Background(), netsim.Budget{})
		if res == nil && err == nil {
			t.Fatal("RunBounded returned neither a result nor an error")
		}
	})
}
