package scenario

import (
	"testing"

	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/units"
)

// TestSteadyStateAllocs is the allocation discipline of DESIGN.md §3.6 as a
// gate: once a run's pools have reached their high water, a feedback message,
// a receiver tick and a detector poll allocate nothing. Each case runs 40 ms
// to warm up and counts the mallocs of the next 40 ms (≈ 850 k events on the
// ring) with both detectors polling, with and without a metrics registry.
// TestAllocBudget in netsim bounds the other half, a whole run's set-up.
//
// Two allocators are exempt by design and bounded instead of left unmeasured:
// BFC assigns flows to queues through per-channel maps (0 measured on the
// ring, whose three flows keep their queues; the margin is for a map that
// rehashes), and a sweep cell's workload generator makes new Flows — they are
// the workload (5 297 measured: four mallocs per generated flow).
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state allocation gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on its own")
	}
	const window = 40 * units.Millisecond
	type gate struct {
		name  string
		spec  Spec
		limit float64 // mallocs allowed in the measured window
	}
	cases := []gate{
		{"ring-bfc", RingFaulted(BFC, 1), 64},
		{"sweepcell-gfcbuf", SweepCell(GFCBuf, 4, 2, 1), 8000},
	}
	for _, fc := range []FC{PFC, CBFC, GFCBuf, GFCTime} {
		// The faulted declaration of the steady ring is the one the fault
		// matrix runs; it adds buffer-based GFC's refresh timer.
		cases = append(cases, gate{"ring-" + schemeSlug(fc), RingFaulted(fc, 1), 0})
	}
	for _, tc := range cases {
		for _, withReg := range []bool{false, true} {
			name := tc.name
			if withReg {
				name += "+registry"
			}
			t.Run(name, func(t *testing.T) {
				spec := tc.spec
				spec.Run.Detector = "both"
				spec.Run.DurationNs = 2 * window
				var ov Overrides
				if withReg {
					ov.Metrics = metrics.New(metrics.Options{})
				}
				sim, err := Build(spec, &ov)
				if err != nil {
					t.Fatal(err)
				}
				var until units.Time
				// AllocsPerRun's warm-up call is the first window, its one
				// measured call the second.
				got := testing.AllocsPerRun(1, func() {
					until += window
					sim.Net.Run(until)
				})
				fired := sim.Net.Engine().Fired()
				t.Logf("%v mallocs in the second %v (%d events in both)", got, window, fired)
				if got > tc.limit {
					t.Errorf("%v mallocs in steady state, limit %v", got, tc.limit)
				}
				if sim.verdict() != nil || sim.Net.Drops() != 0 {
					t.Errorf("the steady run deadlocked or dropped: it measured no steady state")
				}
			})
		}
	}
}
