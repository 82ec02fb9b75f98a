package experiments

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/gfcsim/gfc/internal/netsim"
)

// TestWallTrippedCellsRecomputeOnResume pins that a quarantine is not
// durable: budgets are not part of the sweep key, so a cell that tripped the
// governor's wall clock or its event budget must be recomputed — not
// replayed as a failure — when the sweep is resumed without the budget.
func TestWallTrippedCellsRecomputeOnResume(t *testing.T) {
	cfg := resumeSweepConfig()
	cfg.Networks = 6
	ref, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.CBDProne == 0 {
		t.Fatal("no CBD-prone cell: the test simulates nothing")
	}
	for name, budget := range map[string]netsim.Budget{
		"wall":   {MaxWall: 1},
		"events": {MaxEvents: 2000},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			cfg.Checkpoint = filepath.Join(t.TempDir(), "sweep.ckpt")
			cfg.Budget = budget
			res, err := RunSweep(context.Background(), PFC, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.CBDProne != 0 || len(res.Failures) != ref.CBDProne {
				t.Fatalf("%d cells aggregated, %d quarantined; want every one of the %d CBD-prone cells quarantined:\n%s",
					res.CBDProne, len(res.Failures), ref.CBDProne, res.FailureSummary())
			}

			cfg.Budget = netsim.Budget{}
			resumed, err := RunSweep(context.Background(), PFC, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(resumed.Failures) != 0 {
				t.Fatalf("resume replayed budget quarantines instead of recomputing:\n%s", resumed.FailureSummary())
			}
			if a, b := aggHash(resumed), aggHash(ref); a != b {
				t.Fatalf("resumed aggregate %016x != clean run %016x", a, b)
			}
		})
	}
}
