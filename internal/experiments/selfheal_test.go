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

// TestSweepDegradesToFluid pins the graceful-degradation path end to end: a
// GFC-buffer sweep whose packet path never stops failing transiently falls
// back to the fluid backend once the retry budget is spent, marks every
// degraded cell in provenance, stamps the constant escalation marker on the
// fluid-computed repeats, and stays deterministic across runs.
func TestSweepDegradesToFluid(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the sweep at fluid fidelity")
	}
	cfg := selfHealSweepConfig()
	cfg.Retry.Max = 1
	cfg.Degrade = true
	// The primary path never succeeds: every attempt hits a host stall.
	cfg.failInject = func(job, attempt int) error {
		return fmt.Errorf("injected host stall on cell %d attempt %d: %w",
			job, attempt, context.DeadlineExceeded)
	}

	res, err := RunSweep(context.Background(), GFCBuf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The fallback partitions the sweep: cells the analytic model vouches
	// for degrade to fluid values; cells within the tolerance band of the
	// envelope (where only a packet re-run could decide) refuse and
	// quarantine. Both sides must be accounted for — no cell vanishes.
	if got := len(res.Degraded) + len(res.Failures); got != cfg.Networks {
		t.Fatalf("%d degraded + %d quarantined != %d cells",
			len(res.Degraded), len(res.Failures), cfg.Networks)
	}
	if len(res.Degraded) == 0 {
		t.Fatalf("no cell degraded: %s", res.FailureSummary())
	}
	for _, d := range res.Degraded {
		if !strings.Contains(d.Cause, "injected host stall") {
			t.Fatalf("cell %d degraded cause %q does not name the transient", d.Job, d.Cause)
		}
	}
	for _, f := range res.Failures {
		if !strings.Contains(f.Err, "cannot degrade") {
			t.Fatalf("cell %d quarantined without a degradation refusal: %q", f.Job, f.Err)
		}
	}
	if res.CBDProne == 0 {
		t.Fatal("no degraded cell aggregated (all reported non-prone?)")
	}
	sum := res.ResilienceSummary()
	if !strings.Contains(sum, "degraded to fluid fidelity") {
		t.Fatalf("resilience summary missing degradation:\n%s", sum)
	}

	// Determinism: degraded cells are computed from (seed, config) like any
	// other, and the band refusal is a function of the fluid trajectory, so
	// a second run reproduces aggregate, provenance and refusals exactly.
	res2, err := RunSweep(context.Background(), GFCBuf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := aggHash(res2), aggHash(res); a != b {
		t.Fatalf("degraded sweep not deterministic: %016x != %016x", a, b)
	}
	if !reflect.DeepEqual(res2.Degraded, res.Degraded) {
		t.Fatal("degraded provenance not deterministic")
	}
	if res2.FailureSummary() != res.FailureSummary() {
		t.Fatal("degradation refusals not deterministic")
	}
}

// TestSweepDegradeQuarantinesUnsupported pins the refusal side: CBFC has no
// fluid rendition, so a retry-exhausted CBFC cell cannot degrade — it
// quarantines with both the original transient cause and the degradation
// refusal in its report.
func TestSweepDegradeQuarantinesUnsupported(t *testing.T) {
	cfg := selfHealSweepConfig()
	cfg.Networks = 4
	cfg.Retry.Max = 1
	cfg.Degrade = true
	cfg.failInject = func(job, attempt int) error {
		return fmt.Errorf("injected host stall on cell %d attempt %d: %w",
			job, attempt, context.DeadlineExceeded)
	}

	// The prone cells are the ones that would simulate — only they need a
	// fluid rendition; a non-prone cell's recomputation is the prone check
	// itself, so it degrades to its (empty) value on any scheme.
	prone := map[int]bool{}
	for i := 0; i < cfg.Networks; i++ {
		if _, _, p := GenerateScenario(cfg.K, cfg.FailureProb, cfg.seedOf(i)); p {
			prone[i] = true
		}
	}
	if len(prone) == 0 {
		t.Fatal("test sweep has no CBD-prone cell")
	}

	res, err := RunSweep(context.Background(), CBFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != len(prone) {
		t.Fatalf("%d cells quarantined, want the %d prone ones: %s",
			len(res.Failures), len(prone), res.FailureSummary())
	}
	for _, f := range res.Failures {
		if !prone[f.Job] {
			t.Fatalf("non-prone cell %d quarantined: %q", f.Job, f.Err)
		}
		if !strings.Contains(f.Err, "injected host stall") {
			t.Fatalf("cell %d failure %q lost the original cause", f.Job, f.Err)
		}
		if !strings.Contains(f.Err, "cannot degrade: "+escalateUnsupported) {
			t.Fatalf("cell %d failure %q does not name the degradation refusal", f.Job, f.Err)
		}
	}
	for _, d := range res.Degraded {
		if prone[d.Job] {
			t.Fatalf("prone CBFC cell %d claimed a degraded value", d.Job)
		}
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
