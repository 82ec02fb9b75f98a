package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gfcsim/gfc/internal/units"
)

// TestSweepConfigValidate pins the sweep-parameter gate: every rejection is
// descriptive, and the boundary values on both sides land where documented.
func TestSweepConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*SweepConfig)
		want string // "" = valid
	}{
		{"default", func(cfg *SweepConfig) {}, ""},
		{"k floor", func(cfg *SweepConfig) { cfg.K = 4 }, ""},
		{"k ceiling", func(cfg *SweepConfig) { cfg.K = 32 }, ""},
		{"k below census", func(cfg *SweepConfig) { cfg.K = 2 }, "fat-tree census"},
		{"k odd", func(cfg *SweepConfig) { cfg.K = 5 }, "fat-tree census"},
		{"k above census", func(cfg *SweepConfig) { cfg.K = 34 }, "fat-tree census"},
		{"k zero", func(cfg *SweepConfig) { cfg.K = 0 }, "fat-tree census"},
		{"no networks", func(cfg *SweepConfig) { cfg.Networks = 0 }, "at least one failure scenario"},
		{"negative networks", func(cfg *SweepConfig) { cfg.Networks = -3 }, "at least one failure scenario"},
		{"no repeats", func(cfg *SweepConfig) { cfg.Repeats = 0 }, "at least one workload repetition"},
		{"failure prob floor", func(cfg *SweepConfig) { cfg.FailureProb = 0 }, ""},
		{"failure prob ceiling", func(cfg *SweepConfig) { cfg.FailureProb = 1 }, ""},
		{"failure prob negative", func(cfg *SweepConfig) { cfg.FailureProb = -0.01 }, "outside [0, 1]"},
		{"failure prob above one", func(cfg *SweepConfig) { cfg.FailureProb = 1.01 }, "outside [0, 1]"},
		{"no horizon", func(cfg *SweepConfig) { cfg.Duration = 0 }, "positive run horizon"},
		{"negative horizon", func(cfg *SweepConfig) { cfg.Duration = -units.Millisecond }, "positive run horizon"},
		{"backend packet", func(cfg *SweepConfig) { cfg.Backend = "packet" }, ""},
		{"backend fluid", func(cfg *SweepConfig) { cfg.Backend = "fluid" }, ""},
		{"backend auto", func(cfg *SweepConfig) { cfg.Backend = "auto" }, `unknown backend "auto" (want packet or fluid)`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultSweep(8)
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// RunSweep refuses an invalid config up front rather than mid-flight.
	bad := DefaultSweep(4)
	bad.Repeats = 0
	if _, err := RunSweep(context.Background(), PFC, bad); err == nil ||
		!strings.Contains(err.Error(), "workload repetition") {
		t.Fatalf("RunSweep accepted an invalid config: %v", err)
	}
}

// TestFluidSweepRefusesWhatItCannotDecide pins which schemes a fluid sweep
// runs: deadlock formation is packet-granular, so a scheme the analytic model
// does not predict deadlock-free on a cyclic CBD — every simulated cell is
// one — is refused before a cell runs, as a scheme with no fluid rendition
// is. A fluid PFC sweep used to run and count 0 deadlocks where the packet
// sweep counts them.
func TestFluidSweepRefusesWhatItCannotDecide(t *testing.T) {
	cfg := DefaultSweep(4)
	cfg.Networks, cfg.Backend = 2, "fluid"
	for fc, want := range map[FC]string{
		PFC:  "can deadlock on a cyclic CBD",
		CBFC: "credit accounting is message-granular",
	} {
		if _, err := RunSweep(context.Background(), fc, cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("fluid sweep of %s: err = %v, want a refusal naming %q", fc, err, want)
		}
	}
	for _, fc := range []FC{GFCBuf, GFCTime} {
		if err := fluidSweepSupports(fc); err != nil {
			t.Errorf("fluid sweep of %s refused: %v", fc, err)
		}
	}
}

// analyticHash folds the per-repeat checker participation into the aggregate
// hash, so resume/worker comparisons cover the analytic verdicts too.
func analyticHash(res *SweepResult) uint64 {
	g := newHasher()
	g.mix(aggHash(res), uint64(res.AnalyticChecked))
	return g.sum()
}

// TestAnalyticSweepKillAndResume is the ISSUE's k=4 CI slice of the
// full-scale Table 1 contract: a checker-enforced sweep killed mid-flight
// and resumed from its checkpoint reproduces the uninterrupted aggregate bit
// for bit, including how many repeats the checker validated.
func TestAnalyticSweepKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice plus an interrupted pass")
	}
	cfg := resumeSweepConfig()
	cfg.Analytic = true
	ref, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Failures) != 0 {
		t.Fatalf("checker quarantined cells on the reference run: %s", ref.FailureSummary())
	}
	if ref.AnalyticChecked == 0 {
		t.Fatal("analytic sweep validated no repeats")
	}
	// Repeats = 1, and only CBD-prone cells simulate: every simulated
	// repeat must have carried the checker.
	if ref.AnalyticChecked != ref.CBDProne {
		t.Fatalf("AnalyticChecked = %d, want one per CBD-prone cell (%d)",
			ref.AnalyticChecked, ref.CBDProne)
	}

	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg.Checkpoint = ckpt
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for {
			if fi, err := os.Stat(ckpt); err == nil && fi.Size() > 0 {
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
	partial, err := RunSweep(ctx, PFC, cfg)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep failed: %v", err)
	}
	if err == nil {
		t.Log("sweep outran the kill; resume degenerates to pure replay")
	}
	if partial == nil {
		t.Fatal("interrupted sweep returned no partial aggregate")
	}

	resumed, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Failures) != 0 {
		t.Fatalf("resumed sweep quarantined cells: %s", resumed.FailureSummary())
	}
	if a, b := analyticHash(resumed), analyticHash(ref); a != b {
		t.Fatalf("resumed aggregate %016x != uninterrupted %016x (AnalyticChecked %d vs %d)",
			a, b, resumed.AnalyticChecked, ref.AnalyticChecked)
	}
}

// TestAnalyticVerdictWorkerIndependence pins that the per-cell checker
// verdicts — like the aggregates they ride on — do not depend on sweep
// parallelism.
func TestAnalyticVerdictWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep at two worker counts")
	}
	cfg := resumeSweepConfig()
	cfg.Networks = 8
	cfg.Analytic = true
	var hashes []uint64
	var checked []int
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		res, err := RunSweep(context.Background(), PFC, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Failures) != 0 {
			t.Fatalf("workers=%d quarantined cells: %s", workers, res.FailureSummary())
		}
		hashes = append(hashes, analyticHash(res))
		checked = append(checked, res.AnalyticChecked)
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("aggregate depends on worker count: %016x (w=1) != %016x (w=4); AnalyticChecked %d vs %d",
			hashes[0], hashes[1], checked[0], checked[1])
	}
}
