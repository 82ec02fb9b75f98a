package scenario

import (
	"context"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/fluid"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// conformanceSkips lists every registered scenario the backend-conformance
// suite may skip, with the substring its skip reason must contain. The
// mapping is enforced both ways: a scenario that skips for an unlisted
// reason fails, and a listed scenario that turns out to be comparable fails
// too — so the list cannot rot as the catalogue grows.
var conformanceSkips = map[string]string{
	"ring-steady-gfcbuf":           "cyclic",
	"ring-formation-pfc":           "cyclic",
	"ring-faulted-resume-loss-pfc": "fault injection",
	"ring-formation-bfc":           "per-flow queues",
	"ring-formation-pfc-dcfit":     "DCFIT",
	"ring-faulted-resume-loss-bfc": "fault injection",
	"casestudy-pfc":                "cyclic",
	"casestudy-gfcbuf":             "cyclic",
	"evolution-pfc":                "generator",
	"overhead-gfcbuf":              "generator",
	"sweep-cell-pfc":               "generator",
	"sweep-cell-bfc":               "generator",
	"twotoone-cbfc":                "credit",
	"clos128-pfc":                  "generator",
	"clos128-gfcbuf":               "generator",
	"clos128-cbfc":                 "generator",
	"clos128-gfctime":              "generator",
	"clos128-bfc":                  "generator",
	"clos1024-pfc":                 "generator",
	"clos1024-gfcbuf":              "generator",
	"clos1024-gfctime":             "generator",
	"clos3456-pfc":                 "generator",
	"clos3456-gfcbuf":              "generator",
	"clos3456-gfctime":             "generator",
}

// requireListedSkip asserts the skip (reason) was declared for name with a
// matching reason substring, then records the skip.
func requireListedSkip(t *testing.T, name, reason string) {
	t.Helper()
	want, listed := conformanceSkips[name]
	if !listed {
		t.Fatalf("scenario skipped (%s) but is not in conformanceSkips — add it with the reason", reason)
	}
	if !strings.Contains(reason, want) {
		t.Fatalf("skip reason %q does not contain the declared %q", reason, want)
	}
	t.Skipf("declared skip: %s", reason)
}

// conformanceBand is the fluid-vs-packet occupancy tolerance for a compiled
// spec: fluid.Band at the topology's fastest link and the configured MTU.
func conformanceBand(sim *Sim) units.Size {
	var maxCap units.Rate
	for i := 0; i < sim.Topo.NumLinks(); i++ {
		maxCap = max(maxCap, sim.Topo.Link(topology.LinkID(i)).Capacity)
	}
	return fluid.Band(maxCap, sim.cfg.MTU)
}

// TestBackendConformance runs every registered scenario the fluid backend
// can represent through both backends and asserts they agree: same deadlock
// and loss verdicts, high-water occupancies within the differential
// tolerance band, and both inside the analytic envelope. Scenarios the fluid
// backend refuses to build (what it cannot represent, or whose deadlocks it
// cannot decide), and GFC on a cyclic CBD, where the proportional-share
// solver is not a faithful model of the occupancy, must appear in
// conformanceSkips with the right reason.
func TestBackendConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance suite runs full packet simulations")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, ok := Get(name)
			if !ok {
				t.Fatalf("registered name %q not gettable", name)
			}
			fr, err := FluidBackend{}.Build(spec, nil)
			if err != nil {
				requireListedSkip(t, name, err.Error())
				return
			}

			preg := metrics.New(metrics.Options{})
			psim, err := Build(spec, &Overrides{Metrics: preg})
			if err != nil {
				t.Fatalf("packet build: %v", err)
			}
			if psim.cbdVerdict() {
				requireListedSkip(t, name, "cyclic CBD: fluid proportional sharing is not a faithful model")
				return
			}
			if want, listed := conformanceSkips[name]; listed {
				t.Fatalf("scenario is listed as skipped (%q) but both backends can compare it — drop the entry", want)
			}

			band := conformanceBand(psim)

			pres, err := psim.RunBounded(context.Background(), netsim.Budget{})
			if err != nil {
				t.Fatalf("packet run: %v", err)
			}
			fres, err := fr.RunBounded(context.Background(), netsim.Budget{})
			if err != nil {
				t.Fatalf("fluid run: %v", err)
			}

			if pres.Backend != "packet" || fres.Backend != "fluid" {
				t.Errorf("backend provenance: packet=%q fluid=%q", pres.Backend, fres.Backend)
			}
			if pres.Deadlocked != fres.Deadlocked {
				t.Errorf("deadlock verdicts disagree: packet=%v fluid=%v", pres.Deadlocked, fres.Deadlocked)
			}
			if pres.Drops != 0 || fres.Drops != 0 {
				t.Errorf("loss verdicts: packet dropped %d, fluid dropped %d (want lossless)", pres.Drops, fres.Drops)
			}
			diff := pres.HighWater - fres.HighWater
			if diff < 0 {
				diff = -diff
			}
			if diff > band {
				t.Errorf("high-water disagreement %v (packet %v vs fluid %v) exceeds tolerance band %v",
					diff, pres.HighWater, fres.HighWater, band)
			}
			pred, err := psim.Predict()
			if err != nil {
				t.Fatalf("analytic prediction: %v", err)
			}
			if b := pred.NetworkBounds; b.MaxOccupancy > 0 {
				if pres.HighWater > b.MaxOccupancy {
					t.Errorf("packet high-water %v above analytic envelope %v", pres.HighWater, b.MaxOccupancy)
				}
				if fres.HighWater > b.MaxOccupancy {
					t.Errorf("fluid high-water %v above analytic envelope %v", fres.HighWater, b.MaxOccupancy)
				}
			}
		})
	}
}
