package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gfcsim/gfc/internal/analytic"
	"github.com/gfcsim/gfc/internal/runner"
	"github.com/gfcsim/gfc/internal/units"
)

// autoSweepConfig is the CI-sized adaptive-fidelity sweep: high failure
// probability so most cells are CBD-prone and actually triaged.
func autoSweepConfig() SweepConfig {
	cfg := DefaultSweep(4)
	cfg.Networks = 8
	cfg.Repeats = 1
	cfg.FailureProb = 0.25
	cfg.Duration = 5 * units.Millisecond
	cfg.Workers = 2
	return cfg
}

// cellProvenance is one repeat's backend record, extracted from checkpoint
// entries (and pinned by the escalation golden).
type cellProvenance struct {
	Job        int    `json:"job"`
	Repeat     int    `json:"repeat"`
	Backend    string `json:"backend"`
	Escalation string `json:"escalation,omitempty"`
}

// checkpointProvenance parses a sweep checkpoint and returns the per-repeat
// backend provenance of every successful cell, in job order.
func checkpointProvenance(t *testing.T, path, key string) []cellProvenance {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	perJob := map[int][]cellProvenance{}
	jobs := []int{}
	for n, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		if n == 0 {
			// v2 checkpoint header line.
			var hdr struct {
				Version int `json:"gfc_checkpoint"`
			}
			if json.Unmarshal(line, &hdr) != nil || hdr.Version < 2 {
				t.Fatalf("checkpoint lacks a v2 header: %s", line)
			}
			continue
		}
		// Each entry rides a CRC32 envelope; verifying it here keeps this
		// an independent check of the on-disk format, not just of Lookup.
		var env struct {
			CRC uint32          `json:"crc"`
			E   json.RawMessage `json:"e"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("unparseable envelope line: %v", err)
		}
		if crc32.ChecksumIEEE(env.E) != env.CRC {
			t.Fatalf("checkpoint line %d fails its CRC", n)
		}
		var e runner.Entry
		if err := json.Unmarshal(env.E, &e); err != nil {
			t.Fatalf("unparseable checkpoint line: %v", err)
		}
		if e.Key != key || len(e.Value) == 0 {
			continue
		}
		var sc scenarioOutcome
		if err := json.Unmarshal(e.Value, &sc); err != nil {
			t.Fatalf("unparseable cell value: %v", err)
		}
		if _, seen := perJob[e.Job]; !seen {
			jobs = append(jobs, e.Job)
		}
		var cells []cellProvenance
		for r, res := range sc.Repeats {
			if res == nil {
				continue
			}
			cells = append(cells, cellProvenance{
				Job: e.Job, Repeat: r,
				Backend: res.Backend, Escalation: res.Escalation,
			})
		}
		perJob[e.Job] = cells
	}
	var out []cellProvenance
	for i := 0; i <= maxJob(jobs); i++ {
		out = append(out, perJob[i]...)
	}
	return out
}

func maxJob(jobs []int) int {
	m := -1
	for _, j := range jobs {
		if j > m {
			m = j
		}
	}
	return m
}

// TestAutoSweepMatchesPacketVerdicts is the adaptive-fidelity contract: an
// auto-mode sweep must reproduce the all-packet sweep's quarantine and
// verdict aggregates — CBD census, deadlock cases, drops, failures — while
// doing strictly less packet work.
func TestAutoSweepMatchesPacketVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep at both fidelities")
	}
	cfg := autoSweepConfig()
	for _, fc := range []FC{GFCBuf, PFC} {
		fc := fc
		t.Run(string(fc), func(t *testing.T) {
			start := time.Now()
			packet, err := RunSweep(context.Background(), fc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			packetElapsed := time.Since(start)

			auto := cfg
			auto.Backend = "auto"
			start = time.Now()
			ares, err := RunSweep(context.Background(), fc, auto)
			if err != nil {
				t.Fatal(err)
			}
			autoElapsed := time.Since(start)

			if ares.CBDProne != packet.CBDProne {
				t.Errorf("CBD census: auto %d vs packet %d", ares.CBDProne, packet.CBDProne)
			}
			if ares.DeadlockCases != packet.DeadlockCases {
				t.Errorf("deadlock cases: auto %d vs packet %d", ares.DeadlockCases, packet.DeadlockCases)
			}
			if ares.Drops != packet.Drops {
				t.Errorf("drops: auto %d vs packet %d", ares.Drops, packet.Drops)
			}
			if len(ares.Failures) != len(packet.Failures) {
				t.Errorf("quarantines: auto %d vs packet %d\n%s",
					len(ares.Failures), len(packet.Failures), ares.FailureSummary())
			}
			t.Logf("fc=%v: packet %v, auto %v (%.1f× speedup)",
				fc, packetElapsed, autoElapsed,
				float64(packetElapsed)/float64(autoElapsed))
		})
	}
}

// TestAutoSweepSpeedup measures the adaptive-fidelity payoff at the
// table1 duration (25 ms, where packet cost dominates cell setup): an
// auto-mode GFC-time sweep — whose cells all stay at fluid fidelity, see
// the escalation golden — must beat the all-packet sweep by an order of
// magnitude while agreeing on every verdict aggregate.
func TestAutoSweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-duration packet cells")
	}
	cfg := DefaultSweep(4)
	cfg.Networks = 4
	cfg.Repeats = 1
	cfg.FailureProb = 0.25
	cfg.Workers = 1 // serial on both sides, so the ratio is per-cell cost

	start := time.Now()
	packet, err := RunSweep(context.Background(), GFCTime, cfg)
	if err != nil {
		t.Fatal(err)
	}
	packetElapsed := time.Since(start)

	auto := cfg
	auto.Backend = "auto"
	start = time.Now()
	ares, err := RunSweep(context.Background(), GFCTime, auto)
	if err != nil {
		t.Fatal(err)
	}
	autoElapsed := time.Since(start)

	if ares.CBDProne != packet.CBDProne || ares.DeadlockCases != packet.DeadlockCases ||
		ares.Drops != packet.Drops || len(ares.Failures) != len(packet.Failures) {
		t.Errorf("verdict aggregates disagree: auto %+v packet %+v", ares, packet)
	}
	speedup := float64(packetElapsed) / float64(autoElapsed)
	t.Logf("packet %v, auto %v: %.1f× speedup", packetElapsed, autoElapsed, speedup)
	if speedup < 10 {
		t.Errorf("adaptive fidelity bought only %.1f× (want ≥10×)", speedup)
	}
}

// TestAutoEscalationGolden pins which cells of the canonical CI sweep the
// triage escalates, and why, against a golden file. A change to the fluid
// solver, the analytic envelopes or the tolerance band that silently shifts
// the escalation set fails here; deliberate changes re-pin with -update.
func TestAutoEscalationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the triaged sweep")
	}
	got := map[string][]cellProvenance{}
	cfg := autoSweepConfig()
	cfg.Backend = "auto"
	for _, fc := range []FC{GFCBuf, GFCTime, PFC, CBFC} {
		ckpt := filepath.Join(t.TempDir(), "auto.ckpt")
		run := cfg
		run.Checkpoint = ckpt
		res, err := RunSweep(context.Background(), fc, run)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failures) != 0 {
			t.Fatalf("fc=%v quarantined cells:\n%s", fc, res.FailureSummary())
		}
		got[string(fc)] = checkpointProvenance(t, ckpt, SweepKey(fc, run))
	}

	goldenPath := filepath.Join("testdata", "auto_escalations.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing escalation golden (run with -update): %v", err)
	}
	want := map[string][]cellProvenance{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for fc, wcells := range want {
		gcells := got[fc]
		if len(gcells) != len(wcells) {
			t.Errorf("fc=%s: %d triaged repeats, golden has %d", fc, len(gcells), len(wcells))
			continue
		}
		for i, w := range wcells {
			if gcells[i] != w {
				t.Errorf("fc=%s repeat %d: got %+v, golden %+v", fc, i, gcells[i], w)
			}
		}
	}
	for fc := range got {
		if _, ok := want[fc]; !ok {
			t.Errorf("fc=%s triaged but absent from golden", fc)
		}
	}
}

// TestAutoSweepKillResumeBitIdentical extends the resume contract to
// adaptive fidelity: an auto-mode sweep killed mid-flight and resumed must
// reproduce the uninterrupted aggregate bit for bit, and the resumed
// checkpoint must carry per-repeat backend provenance identical to an
// uninterrupted checkpointed run — replayed cells keep the provenance of
// the run that computed them.
func TestAutoSweepKillResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep three times")
	}
	cfg := autoSweepConfig()
	cfg.Backend = "auto"
	ref, err := RunSweep(context.Background(), GFCBuf, cfg)
	if err != nil {
		t.Fatal(err)
	}

	full := cfg
	full.Checkpoint = filepath.Join(t.TempDir(), "full.ckpt")
	fres, err := RunSweep(context.Background(), GFCBuf, full)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := aggHash(fres), aggHash(ref); a != b {
		t.Fatalf("checkpointed aggregate %016x != plain %016x", a, b)
	}

	killed := cfg
	killed.Checkpoint = filepath.Join(t.TempDir(), "killed.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for {
			if fi, err := os.Stat(killed.Checkpoint); err == nil && fi.Size() > 0 {
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
	if _, err := RunSweep(ctx, GFCBuf, killed); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep failed: %v", err)
	}
	resumed, err := RunSweep(context.Background(), GFCBuf, killed)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := aggHash(resumed), aggHash(ref); a != b {
		t.Fatalf("resumed aggregate %016x != uninterrupted %016x", a, b)
	}

	key := SweepKey(GFCBuf, cfg)
	fullProv := checkpointProvenance(t, full.Checkpoint, key)
	resProv := checkpointProvenance(t, killed.Checkpoint, key)
	if len(fullProv) == 0 {
		t.Fatal("no triaged repeats in the checkpoint")
	}
	sawFluid := false
	for _, p := range fullProv {
		if p.Backend == "" {
			t.Fatalf("repeat %+v carries no backend provenance", p)
		}
		if p.Backend == "fluid" {
			sawFluid = true
		}
	}
	if !sawFluid {
		t.Error("triage escalated every repeat; fluid fidelity never used")
	}
	if len(resProv) != len(fullProv) {
		t.Fatalf("resumed checkpoint has %d repeats, uninterrupted %d", len(resProv), len(fullProv))
	}
	for i := range fullProv {
		if resProv[i] != fullProv[i] {
			t.Errorf("provenance diverged at %d: resumed %+v vs uninterrupted %+v",
				i, resProv[i], fullProv[i])
		}
	}
}

// TestTriageBoundaries drives each of the five analytic boundaries through
// the one triage function and pins that both consumers carry its reason
// verbatim: auto mode as the packet re-run's Escalation, degraded mode as
// the "cannot degrade: " refusal. Unsupported, cyclic-CBD and within-band
// are real cells of the escalation golden's sweep; a GFC fluid run never
// deadlocks or drops, so those two contradictions are fed to the verdict
// function directly.
func TestTriageBoundaries(t *testing.T) {
	pred := &analytic.Prediction{DeadlockFree: true, Lossless: true, MaxOccupancy: 100 * units.KB}
	lossy := &analytic.Prediction{DeadlockFree: true, MaxOccupancy: 100 * units.KB}
	band := 10 * units.KB
	for _, tc := range []struct {
		name string
		pred *analytic.Prediction
		fres ScenarioResult
		want string
	}{
		{"fluid deadlock", pred, ScenarioResult{Deadlocked: true}, escalateDeadlock},
		{"fluid loss", pred, ScenarioResult{Drops: 1}, escalateLoss},
		{"loss not predicted lossless", lossy, ScenarioResult{Drops: 1}, ""},
		{"within band", pred, ScenarioResult{HighWater: 90 * units.KB}, escalateBoundary},
		{"clear of the envelope", pred, ScenarioResult{HighWater: 89 * units.KB}, ""},
	} {
		if got := verdictBoundary(tc.pred, &tc.fres, band); got != tc.want {
			t.Errorf("%s: boundary %q, want %q", tc.name, got, tc.want)
		}
	}

	cfg := autoSweepConfig()
	ctx := context.Background()
	for _, tc := range []struct {
		fc   FC
		job  int
		want string // reason prefix; "" means the fluid verdict stands
	}{
		{CBFC, 0, escalateUnsupported + ": "},
		{PFC, 0, escalateCyclic},
		{GFCBuf, 5, escalateBoundary},
		{GFCBuf, 0, ""},
	} {
		topo, tab, prone := GenerateScenario(cfg.K, cfg.FailureProb, cfg.seedOf(tc.job))
		if !prone {
			t.Fatalf("%s cell %d is not CBD-prone", tc.fc, tc.job)
		}
		seed := cfg.Seed*1000 + int64(tc.job)
		_, reason, err := triageRepeat(ctx, topo, tab, tc.fc, cfg, seed)
		if err != nil {
			t.Fatalf("%s cell %d: %v", tc.fc, tc.job, err)
		}
		if (reason == "") != (tc.want == "") || !strings.HasPrefix(reason, tc.want) {
			t.Fatalf("%s cell %d: triage reason %q, want prefix %q", tc.fc, tc.job, reason, tc.want)
		}
		ares, err := runAutoRepeat(ctx, topo, tab, tc.fc, cfg, seed)
		if err != nil {
			t.Fatalf("%s cell %d auto: %v", tc.fc, tc.job, err)
		}
		dres, derr := runDegradedRepeat(ctx, topo, tab, tc.fc, cfg, seed)
		if reason == "" {
			if ares.Backend != "fluid" || ares.Escalation != "" {
				t.Errorf("%s cell %d: auto did not keep the fluid verdict: %+v", tc.fc, tc.job, ares)
			}
			if derr != nil || dres.Escalation != DegradedEscalation {
				t.Errorf("%s cell %d: degrade refused a standing verdict: %v", tc.fc, tc.job, derr)
			}
			continue
		}
		if ares.Backend != "packet" || ares.Escalation != reason {
			t.Errorf("%s cell %d: auto escalation %q on %q, want %q on packet",
				tc.fc, tc.job, ares.Escalation, ares.Backend, reason)
		}
		if derr == nil || derr.Error() != "cannot degrade: "+reason {
			t.Errorf("%s cell %d: degrade refusal %v, want %q", tc.fc, tc.job, derr, "cannot degrade: "+reason)
		}
	}
}
