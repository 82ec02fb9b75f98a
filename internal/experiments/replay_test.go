package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"

	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/units"
)

// replaySlice is jobs 0–35 of the CI slice (-table1-scale ci) at a 50 ms
// horizon. Its CBD-prone cells are 34 and 35, and PFC deadlocks in both.
func replaySlice() SweepConfig {
	cfg := DefaultSweep(4)
	cfg.Networks, cfg.Repeats, cfg.Analytic = 36, 1, true
	cfg.Duration = 50 * units.Millisecond
	return cfg
}

// replayJob is the cell whose PFC repeat testdata/sweep-job34-pfc.json holds:
// network seed 35, the failures the registered sweep-cell-* scenarios draw.
const replayJob = 34

const replaySpecPath = "testdata/sweep-job34-pfc.json"

// TestSweepRepeatReplays: a sweep repeat's Spec is the whole run. For every
// CBD-prone cell of a small k=4 slice, under every scheme, the repeat's Spec,
// marshalled to JSON, parsed and built with no Overrides, runs to the
// ScenarioResult the sweep recorded: verdict, deadlock time, drops, host
// bandwidth, high water and the analytic verdict. Job 34's PFC repeat
// deadlocks, so a deadlock verdict replays too.
func TestSweepRepeatReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scheme on two 50 ms cells, twice")
	}
	cfg := replaySlice()
	var prone []int
	for job := range cfg.Networks {
		if _, _, ok := GenerateScenario(cfg.K, cfg.FailureProb, cfg.seedOf(job)); ok {
			prone = append(prone, job)
		}
	}
	if !slices.Contains(prone, replayJob) {
		t.Fatalf("CBD-prone cells %v leave out job %d", prone, replayJob)
	}
	for _, job := range prone {
		t.Run(fmt.Sprintf("cell%d", job), func(t *testing.T) {
			t.Parallel()
			replayCell(t, cfg, job)
		})
	}
}

// replayCell runs sweep cell job under every scheme and replays each repeat
// from its Spec's JSON alone.
func replayCell(t *testing.T, cfg SweepConfig, job int) {
	ctx := context.Background()
	topo, _, _ := GenerateScenario(cfg.K, cfg.FailureProb, cfg.seedOf(job))
	schemes := AllFCs()
	sc, err := runCell(ctx, schemes, cfg, job)
	if err != nil {
		t.Fatal(err)
	}
	for s, fc := range schemes {
		for r := range cfg.Repeats {
			want := *sc.Repeats[s*cfg.Repeats+r]
			want.Slowdowns = nil // runRepeat leaves them to RunScenario
			if job == replayJob && fc == PFC && !want.Deadlocked {
				t.Errorf("%s did not deadlock: the slice replays no deadlock", fc)
			}
			data, err := json.Marshal(sweepSpec(fc, cfg, topo, cfg.repeatSeed(job, r)))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := scenario.Parse(data)
			if err != nil {
				t.Fatalf("%s: %v", fc, err)
			}
			sim, err := scenario.Build(*spec, nil)
			if err != nil {
				t.Fatalf("%s: %v", fc, err)
			}
			got, err := runRepeat(ctx, sim, sim.Topo, cfg)
			sim.Close()
			if err != nil {
				t.Fatalf("%s: replay: %v", fc, err)
			}
			if !reflect.DeepEqual(*got, want) {
				t.Errorf("%s repeat %d: the replayed Spec ran to\n%+v\nthe sweep recorded\n%+v", fc, r, *got, want)
			}
			t.Logf("%s: deadlocked %v at %v, drops %d", fc, got.Deadlocked, got.DeadlockAt, got.Drops)
		}
	}
}

// TestRegisteredSweepCellIsASweepJob: the registered sweep-cell-pfc and
// sweep-cell-bfc (fail_random p = 0.05, seed 35) fail exactly the links the
// seed-1 sweep's Spec for job 34 names, so "one table1 sweep cell" is one.
func TestRegisteredSweepCellIsASweepJob(t *testing.T) {
	cfg := DefaultSweep(4)
	topo, _, prone := GenerateScenario(cfg.K, cfg.FailureProb, cfg.seedOf(replayJob))
	if !prone {
		t.Fatalf("job %d is not CBD-prone", replayJob)
	}
	want := sweepSpec(PFC, cfg, topo, 0).Topology.FailLinks
	if len(want) == 0 {
		t.Fatalf("job %d names no failed link", replayJob)
	}
	for _, name := range []string{"sweep-cell-pfc", "sweep-cell-bfc"} {
		spec, ok := scenario.Get(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		sim, err := scenario.Build(spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := sweepSpec(PFC, cfg, sim.Topo, 0).Topology.FailLinks
		sim.Close()
		if !slices.Equal(got, want) {
			t.Errorf("%s fails %v; job %d's Spec names %v", name, got, replayJob, want)
		}
	}
}

// TestSweepRepeatSpecFile holds testdata/sweep-job34-pfc.json, which CI runs
// through gfcsim -scenario, to the Spec the sweep builds for job 34's PFC
// repeat of replaySlice; -update rewrites it.
func TestSweepRepeatSpecFile(t *testing.T) {
	cfg := replaySlice()
	topo, _, prone := GenerateScenario(cfg.K, cfg.FailureProb, cfg.seedOf(replayJob))
	if !prone {
		t.Fatalf("job %d is not CBD-prone", replayJob)
	}
	want, err := json.MarshalIndent(sweepSpec(PFC, cfg, topo, cfg.repeatSeed(replayJob, 0)), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(replaySpecPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(replaySpecPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the sweep's Spec for job %d; re-record with -update if intended:\n%s",
			replaySpecPath, replayJob, want)
	}
}
