package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gfcsim/gfc/internal/runner"
)

// selfHealSweepConfig is the resume sweep with a retry policy attached: two
// retries with a token backoff base (the recorded backoffs are seed-derived
// regardless of how long the test actually sleeps).
func selfHealSweepConfig() SweepConfig {
	cfg := resumeSweepConfig()
	cfg.Retry = runner.Retry{Max: 2, BackoffBase: time.Microsecond}
	return cfg
}

// injectTransients fails every third cell's first two attempts with a
// transient (host-condition) error, so the retry policy absorbs exactly two
// failures per afflicted cell and the third attempt computes normally.
func injectTransients(job, attempt int) error {
	if job%3 == 1 && attempt <= 2 {
		return fmt.Errorf("injected host stall on cell %d attempt %d: %w",
			job, attempt, context.DeadlineExceeded)
	}
	return nil
}

// TestSweepRetryProvenanceDeterministic pins the self-healing determinism
// contract: a sweep with transient failures absorbed by retries produces a
// bit-identical aggregate AND bit-identical retry provenance at every worker
// count, because attempt counts and backoffs derive from the cell's seed,
// not from scheduling.
func TestSweepRetryProvenanceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep three times")
	}
	cfg := selfHealSweepConfig()
	cfg.failInject = injectTransients

	var ref *SweepResult
	for _, workers := range []int{1, 4, 16} {
		cfg.Workers = workers
		res, err := RunSweep(context.Background(), PFC, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Failures) != 0 {
			t.Fatalf("workers=%d: retries did not absorb the transients: %s",
				workers, res.FailureSummary())
		}
		if len(res.Retried) == 0 {
			t.Fatalf("workers=%d: no retry provenance recorded", workers)
		}
		for _, r := range res.Retried {
			if r.Job%3 != 1 {
				t.Fatalf("workers=%d: cell %d retried but was never injected", workers, r.Job)
			}
			if r.Attempts != 3 || len(r.Retries) != 2 {
				t.Fatalf("workers=%d: cell %d: %d attempts / %d retries, want 3/2",
					workers, r.Job, r.Attempts, len(r.Retries))
			}
		}
		if ref == nil {
			ref = res
			continue
		}
		if a, b := aggHash(res), aggHash(ref); a != b {
			t.Fatalf("workers=%d aggregate %016x != workers=1 %016x", workers, a, b)
		}
		if !reflect.DeepEqual(res.Retried, ref.Retried) {
			t.Fatalf("workers=%d retry provenance differs:\n%+v\nvs\n%+v",
				workers, res.Retried, ref.Retried)
		}
	}

	// The rendered resilience report is part of the contract too: it must
	// name the absorbed failures with their seed-derived backoffs.
	sum := ref.ResilienceSummary()
	if !strings.Contains(sum, "transient failure(s) absorbed") ||
		!strings.Contains(sum, "injected host stall") {
		t.Fatalf("resilience summary missing retry detail:\n%s", sum)
	}
}

// TestSweepRetryProvenanceSurvivesResume pins that checkpointed cells carry
// their retry provenance across a kill-and-resume: the resumed sweep replays
// completed cells (provenance included) and recomputes the rest, landing on
// the same aggregate and the same Retried records as an uninterrupted run.
func TestSweepRetryProvenanceSurvivesResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep three times")
	}
	cfg := selfHealSweepConfig()
	cfg.failInject = injectTransients
	ref, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint = filepath.Join(t.TempDir(), "sweep.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for {
			if fi, err := os.Stat(cfg.Checkpoint); err == nil && fi.Size() > 0 {
				cancel()
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	if _, err := RunSweep(ctx, PFC, cfg); err != nil && ctx.Err() == nil {
		t.Fatalf("interrupted sweep failed: %v", err)
	}

	resumed, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := aggHash(resumed), aggHash(ref); a != b {
		t.Fatalf("resumed aggregate %016x != uninterrupted %016x", a, b)
	}
	if !reflect.DeepEqual(resumed.Retried, ref.Retried) {
		t.Fatalf("resumed retry provenance differs:\n%+v\nvs\n%+v",
			resumed.Retried, ref.Retried)
	}
}

// TestTransientQuarantineRecomputesOnResume pins that a host-condition
// quarantine is not durable: budgets and deadlines are not part of the sweep
// key, so a cell that exhausted its retries on transient failures must be
// recomputed — not replayed as a failure — when the sweep is resumed under
// better conditions.
func TestTransientQuarantineRecomputesOnResume(t *testing.T) {
	cfg := selfHealSweepConfig()
	cfg.Networks = 6
	ref, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint = filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg.failInject = func(job, attempt int) error {
		if job%3 == 1 {
			return fmt.Errorf("injected host stall on cell %d attempt %d: %w",
				job, attempt, context.DeadlineExceeded)
		}
		return nil
	}
	res, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 2 {
		t.Fatalf("%d cells quarantined, want the 2 afflicted ones: %s", len(res.Failures), res.FailureSummary())
	}

	cfg.failInject = nil
	resumed, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Failures) != 0 {
		t.Fatalf("resume replayed transient quarantines instead of recomputing:\n%s", resumed.FailureSummary())
	}
	if a, b := aggHash(resumed), aggHash(ref); a != b {
		t.Fatalf("resumed aggregate %016x != clean run %016x", a, b)
	}
}
