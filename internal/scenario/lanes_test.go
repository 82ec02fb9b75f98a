package scenario

import (
	"testing"

	"github.com/gfcsim/gfc/internal/units"
)

// minLaneShare is the share of a packet run's Engine.After calls that must
// be queued in a constant-delay lane rather than the heap.
const minLaneShare = 0.90

// TestLaneShareAcrossCatalogue runs every registered scenario for a short
// horizon and requires that the event engine's constant-delay lanes took at
// least minLaneShare of its After calls. The two hot delays (link
// propagation, full-MTU serialisation) are 91–100 % of them; this is the
// guard that keeps one more constant-delay timer — a new poll, a new refresh
// — from occupying the lanes and silently pushing those two back onto the
// heap. If it fails, raise eventsim's lane count; results cannot change.
func TestLaneShareAcrossCatalogue(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, _ := Get(name)
			horizon := 2 * units.Millisecond
			if spec.Topology.K >= 16 {
				if testing.Short() || raceEnabled {
					t.Skip("a Clos-scale build and run is too heavy here; the full run covers it")
				}
				horizon = 100 * units.Microsecond
			}
			if spec.Run.DurationNs > horizon {
				spec.Run.DurationNs = horizon
			}
			sim, err := Build(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			sim.Run()
			laned, after := sim.Net.Engine().LaneStats()
			if after == 0 {
				t.Fatal("the run made no After call")
			}
			share := float64(laned) / float64(after)
			t.Logf("%d of %d After calls laned: %.3f", laned, after, share)
			if share < minLaneShare {
				t.Errorf("lane share %.3f is under %.2f", share, minLaneShare)
			}
		})
	}
}
