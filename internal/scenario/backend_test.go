package scenario

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// TestBuildBackendSelection pins the three-way switch: the packet names
// compile onto netsim, "fluid" onto the solver, and an unknown name is an
// error that names it.
func TestBuildBackendSelection(t *testing.T) {
	for name, wantPacket := range map[string]bool{"": true, "packet": true, "fluid": false} {
		spec := twoToOne(GFCBuf)
		spec.Sim.Backend = name
		r, err := BuildBackend(spec, nil)
		if err != nil {
			t.Fatalf("BuildBackend(%q): %v", name, err)
		}
		if _, isPacket := r.(*Sim); isPacket != wantPacket {
			t.Errorf("BuildBackend(%q) built %T", name, r)
		}
	}
	for _, name := range []string{"quantum", "auto"} {
		spec := twoToOne(GFCBuf)
		spec.Sim.Backend = name
		if _, err := BuildBackend(spec, nil); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("BuildBackend(%s) = %v, want error naming it", name, err)
		}
	}
}

// TestSpecBackendValidation pins that a spec names one of the two engines:
// anything else — "auto", the retired adaptive mode, included — fails Validate
// and Parse with an error that lists them.
func TestSpecBackendValidation(t *testing.T) {
	spec := twoToOne(GFCBuf)
	for _, ok := range []string{"", "packet", "fluid"} {
		spec.Sim.Backend = ok
		if err := spec.Validate(); err != nil {
			t.Errorf("backend %q: %v", ok, err)
		}
	}
	for _, bad := range []string{"analog", "auto"} {
		spec.Sim.Backend = bad
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, perr := Parse(data)
		for _, err := range []error{spec.Validate(), perr} {
			if err == nil || !strings.Contains(err.Error(), `unknown backend "`+bad+`" (want packet or fluid)`) {
				t.Errorf("backend %s: err = %v, want an unknown-backend error naming packet and fluid", bad, err)
			}
		}
	}
}

// TestFluidSupportsReasons pins Supports' rejection reasons feature by
// feature — the conformance suite and the sweep drivers' skip lines both
// carry them.
func TestFluidSupportsReasons(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // "" means supported
	}{
		{"baseline", func(*Spec) {}, ""},
		{"faults", func(s *Spec) { s.Faults = &FaultsSpec{Preset: "resume-loss"} }, "fault injection"},
		{"generator", func(s *Spec) {
			s.Workload = WorkloadSpec{Generator: &GeneratorSpec{Dist: "enterprise"}}
		}, "generator"},
		{"cbfc", func(s *Spec) { s.Scheme.FC = CBFC }, "credit"},
		{"bfc", func(s *Spec) { s.Scheme.FC = BFC }, "per-flow queues"},
		{"scheduling", func(s *Spec) { s.Sim.Scheduling = "blocking" }, "packet-granular"},
		{"dcfit", func(s *Spec) { s.Run.Detector = "dcfit" }, "DCFIT"},
		{"both-detectors", func(s *Spec) { s.Run.Detector = "both" }, "DCFIT"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := twoToOne(GFCBuf)
			tc.mutate(&spec)
			err := FluidBackend{}.Supports(&spec)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Supports: %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Supports = %v, want reason containing %q", err, tc.want)
			}
		})
	}
}

// TestFluidBuildRejections pins Build's own gates (beyond Supports): packet
// hooks, and a deadlock-prone scheme on a cyclic CBD, whose verdict the
// solver cannot give.
func TestFluidBuildRejections(t *testing.T) {
	spec := twoToOne(GFCBuf)
	trace := func(*topology.Topology) *netsim.Trace { return &netsim.Trace{} }
	if _, err := (FluidBackend{}).Build(spec, &Overrides{Trace: trace}); err == nil ||
		!strings.Contains(err.Error(), "packet-only") {
		t.Errorf("Trace override: err = %v, want packet-only rejection", err)
	}
	cbfc := twoToOne(CBFC)
	if _, err := (FluidBackend{}).Build(cbfc, nil); err == nil ||
		!strings.Contains(err.Error(), "credit") {
		t.Errorf("CBFC build: err = %v, want Supports rejection", err)
	}
	for _, cyclic := range []Spec{Ring(PFC, 2), CaseStudy(PFC, true, false)} {
		if _, err := (FluidBackend{}).Build(cyclic, nil); err == nil ||
			!strings.Contains(err.Error(), "PFC can deadlock on a cyclic CBD") {
			t.Errorf("%s build: err = %v, want the cyclic-CBD refusal", cyclic.Name, err)
		}
	}
}

// TestFluidRunnerSingleUse mirrors the packet Sim's single-use contract.
func TestFluidRunnerSingleUse(t *testing.T) {
	r, err := (FluidBackend{}).Build(twoToOne(PFC), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunBounded(context.Background(), netsim.Budget{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunBounded(context.Background(), netsim.Budget{}); err == nil {
		t.Error("second RunBounded succeeded, want single-use error")
	}
}

// TestFluidAnalyticAttached checks the fluid runner carries the same
// analytic verdict machinery as the packet path: a registry-bound run with
// Run.Analytic set yields a prediction and no invariant violation.
func TestFluidAnalyticAttached(t *testing.T) {
	spec := twoToOne(GFCBuf)
	spec.Run.Analytic = true
	reg := metrics.New(metrics.Options{})
	r, err := (FluidBackend{}).Build(spec, &Overrides{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunBounded(context.Background(), netsim.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Analytic == nil {
		t.Fatal("no analytic check attached")
	}
	if res.Analytic.Err != nil {
		t.Fatalf("analytic invariant violated: %v", res.Analytic.Err)
	}
	if res.Analytic.Prediction == nil {
		t.Fatal("no prediction recorded")
	}
	if res.HighWater <= 0 {
		t.Error("fluid run recorded no high-water occupancy")
	}
}

// TestFluidVerdictHorizonStable: a fluid deadlock verdict is a property of
// the scenario, not of how long it was watched. Every registered scenario the
// fluid backend builds is run at 1×, 2× and 5× its registered horizon, and
// the verdict and its time must agree — a conviction past the registered
// horizon (casestudy-gfcbuf's floor-rate trickle, convicted at 3.18 ms by every
// run longer than 60 ms while the stall watch took "under a byte per step" for
// a standstill) or one a longer run retracts both fail here. The totals must
// not shrink either: a longer run integrates the shorter one as its prefix,
// so it cannot deliver fewer bytes or peak lower.
func TestFluidVerdictHorizonStable(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Get(name)
		var fb FluidBackend
		if _, err := fb.Build(spec, nil); err != nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var base, prev *Result
			for _, mult := range []units.Time{1, 2, 5} {
				s := spec
				s.Run.DurationNs = mult * spec.Run.DurationNs
				r, err := fb.Build(s, nil)
				if err != nil {
					t.Fatalf("fluid build: %v", err)
				}
				res, err := r.RunBounded(context.Background(), netsim.Budget{})
				if err != nil {
					t.Fatalf("fluid run at %d×: %v", mult, err)
				}
				t.Logf("%d×: delivered %v, high water %v", mult, res.Delivered, res.HighWater)
				if base == nil {
					base, prev = res, res
					continue
				}
				if res.Deadlocked != base.Deadlocked || res.DeadlockAt != base.DeadlockAt {
					t.Errorf("at %d× the horizon: deadlocked=%v at %v; at 1×: deadlocked=%v at %v",
						mult, res.Deadlocked, res.DeadlockAt, base.Deadlocked, base.DeadlockAt)
				}
				if res.Delivered < prev.Delivered || res.HighWater < prev.HighWater {
					t.Errorf("at %d× the horizon: delivered %v, high water %v; the shorter run had %v and %v",
						mult, res.Delivered, res.HighWater, prev.Delivered, prev.HighWater)
				}
				prev = res
			}
		})
	}
}
