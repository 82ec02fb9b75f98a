package experiments

import (
	"context"
	"path/filepath"
	"testing"
)

// TestWallTrippedCellsRecomputeOnResume pins that a host-condition quarantine
// is not durable: budgets are not part of the sweep key, so a cell that
// tripped the governor's wall clock must be recomputed — not replayed as a
// failure — when the sweep is resumed with a larger -budget-wall.
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

	cfg.Checkpoint = filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg.Budget.MaxWall = 1
	res, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CBDProne != 0 || len(res.Failures) != ref.CBDProne {
		t.Fatalf("%d cells aggregated, %d quarantined; want every one of the %d CBD-prone cells quarantined:\n%s",
			res.CBDProne, len(res.Failures), ref.CBDProne, res.FailureSummary())
	}

	cfg.Budget.MaxWall = 0
	resumed, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Failures) != 0 {
		t.Fatalf("resume replayed wall-budget quarantines instead of recomputing:\n%s", resumed.FailureSummary())
	}
	if a, b := aggHash(resumed), aggHash(ref); a != b {
		t.Fatalf("resumed aggregate %016x != clean run %016x", a, b)
	}
}
