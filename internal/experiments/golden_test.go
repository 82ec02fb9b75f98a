package experiments

import (
	"context"

	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
)

// update rewrites testdata/golden_hashes.json with the hashes of the
// current build:
//
//	go test ./internal/experiments -run TestGolden -update
//
// Do this only after verifying that a behaviour change is intended; the
// goldens exist to catch silent drift in the simulation core.
var update = flag.Bool("update", false, "rewrite golden trace hashes")

const goldenPath = "testdata/golden_hashes.json"

// hasher folds run results into an FNV-1a hash. Everything is reduced to
// uint64 words (floats via their IEEE-754 bits), so two runs hash equal iff
// they produced bit-identical results.
type hasher struct{ h hash.Hash64 }

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (g *hasher) mix(vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		g.h.Write(buf[:])
	}
}

func (g *hasher) float(f float64) { g.mix(math.Float64bits(f)) }

func (g *hasher) series(s *stats.Series) {
	g.mix(uint64(len(s.T)))
	for i := range s.T {
		g.mix(uint64(s.T[i]))
		g.float(s.V[i])
	}
}

func (g *hasher) sum() uint64 { return g.h.Sum64() }

func (g *hasher) ring(res *RingResult) {
	g.series(res.Queue)
	g.series(res.Rate)
	g.mix(uint64(res.SteadyQueue), uint64(res.SteadyRate), uint64(res.Drops),
		uint64(res.Delivered), uint64(res.MinFlow))
	g.mix(uint64(res.DeadlockAt), uint64(res.DeadlockKind))
	if res.Deadlocked {
		g.mix(1)
	}
	g.mix(uint64(res.FaultStats.FeedbackDropped), uint64(res.FaultStats.FeedbackDelayed))
}

func (g *hasher) cell(c FaultCell) {
	g.mix(uint64(c.DeadlockAt), uint64(c.DeadlockKind), uint64(c.DCFITAt))
	if c.Deadlocked {
		g.mix(1)
	}
	if c.DCFITDeadlocked {
		g.mix(2)
	}
	g.mix(uint64(c.Drops), uint64(c.Violations), uint64(c.FaultsInjected),
		uint64(c.FaultStats.FeedbackDropped), uint64(c.FaultStats.FeedbackDelayed))
	g.mix(uint64(c.Delivered), uint64(c.MinFlow), uint64(c.SteadyRate))
}

// goldenRuns maps each golden name to the run it hashes. Durations are
// trimmed for CI; what matters is that every subsystem on the hashed path —
// engine ordering, flow control, scheduling, fault injection — reproduces
// the exact event sequence.
var goldenRuns = map[string]func(t *testing.T) uint64{
	"fig9-ring-gfcbuf": func(t *testing.T) uint64 {
		res, err := RunRing(scenario.Ring(GFCBuf, 1), RunOptions{Duration: 30 * units.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		g := newHasher()
		g.ring(res)
		return g.sum()
	},
	"fig9-ring-faulted": func(t *testing.T) uint64 {
		// The canonical faulted scenario: resume-loss on the fig9 ring,
		// PFC (wedges) and buffer-based GFC, which a faulted ring runs with
		// refresh (rides it out).
		g := newHasher()
		for _, fc := range []FC{PFC, GFCBuf} {
			spec := scenario.RingFaulted(fc, 1)
			spec.Faults = &scenario.FaultsSpec{Preset: "resume-loss", Seed: 1}
			res, err := RunRing(spec, RunOptions{Duration: 30 * units.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			g.ring(res)
		}
		return g.sum()
	},
	"fig12-casestudy-pfc": func(t *testing.T) uint64 {
		res, err := RunCaseStudy(scenario.CaseStudy(PFC, true, false),
			RunOptions{Duration: 30 * units.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		g := newHasher()
		for _, r := range res.FlowRates {
			g.mix(uint64(r))
		}
		g.mix(uint64(res.DeadlockAt), uint64(res.Drops))
		if res.Deadlocked {
			g.mix(1)
		}
		for _, r := range res.Throughput.Rates() {
			g.mix(uint64(r))
		}
		return g.sum()
	},
	"fig19-overhead": func(t *testing.T) uint64 {
		res, err := RunOverhead(scenario.Overhead(GFCBuf, 4, 1), RunOptions{Duration: 5 * units.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		g := newHasher()
		g.mix(uint64(res.CDF.Len()), uint64(res.Drops))
		g.float(res.Mean)
		g.float(res.P99)
		g.float(res.Max)
		return g.sum()
	},
	"table1-sweep-pfc": func(t *testing.T) uint64 {
		return sweepHash(t, 4)
	},
	"faultmatrix-race": func(t *testing.T) uint64 {
		// The scheme-race slice of the fault matrix: the on/off schemes
		// (PFC and BFC) under the two fault presets that break them, with
		// both detectors' verdicts folded into the hash — pins BFC's
		// per-queue pause plumbing and DCFIT's edge tracking end to end.
		cells, err := RunFaultMatrix(FaultMatrixConfig{
			Schemes:   []FC{PFC, BFC},
			Scenarios: []string{"resume-loss", "feedback-loss"},
			Duration:  30 * units.Millisecond,
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := newHasher()
		for _, c := range cells {
			g.cell(c)
		}
		return g.sum()
	},
	"fig9-metrics-report": func(t *testing.T) uint64 {
		// The -metrics-out bytes of the fig9 section under feedback-loss:
		// four runs with occupancy series, drop violations, feedback-drop
		// and rate-scale faults, and totals. PFC drops, so Flush writes the
		// report and then fails the invariant gate.
		d, err := Lookup("fig9")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "m.json")
		o := &Options{
			RunOptions: RunOptions{Duration: 10 * units.Millisecond},
			Seed:       1,
			Faults:     "feedback-loss",
			Sink:       NewMetricsSink(path),
		}
		if err := d.Run(io.Discard, o); err != nil {
			t.Fatal(err)
		}
		if err := o.Sink.Flush(); err == nil || !strings.Contains(err.Error(), "violated invariants") {
			t.Fatalf("Flush = %v, want the invariant violation", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g := newHasher()
		g.h.Write(data)
		return g.sum()
	},
	"fig9-metrics-five-kinds": func(t *testing.T) uint64 {
		// The -metrics-out bytes of the fig9 section under an inline spec
		// that injects every fault kind on disjoint windows: a flap and a
		// degrade on S1-S2 (link-down, link-up, rate-scale, plus the
		// feedback the down link destroys), then a feedback fault on every
		// switch link with both a drop probability and a delay.
		dir := t.TempDir()
		spec := filepath.Join(dir, "five-kinds.json")
		if err := os.WriteFile(spec, []byte(`{"name": "five-kinds", "links": [
			{"link": "S1-S2", "flaps": [{"down_at_ns": 2000000, "up_at_ns": 3000000}],
			 "degrade": [{"from_ns": 4000000, "until_ns": 6000000, "factor": 0.5}]},
			{"link": "*", "feedback": [{"drop_prob": 0.2, "delay_ns": 2000,
			 "from_ns": 6000000, "until_ns": 9000000}]}]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Lookup("fig9")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "m.json")
		o := &Options{
			RunOptions: RunOptions{Duration: 10 * units.Millisecond},
			Seed:       1,
			Faults:     spec,
			Sink:       NewMetricsSink(path),
		}
		if err := d.Run(io.Discard, o); err != nil {
			t.Fatal(err)
		}
		if err := o.Sink.Flush(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"feedback-drop", "feedback-delay", "link-down", "link-up", "rate-scale"} {
			if !strings.Contains(string(data), `"kind": "`+kind+`"`) {
				t.Errorf("report records no %s fault", kind)
			}
		}
		g := newHasher()
		g.h.Write(data)
		return g.sum()
	},
}

// sweepHash runs a small PFC failure sweep with the given worker count and
// hashes its aggregate. Used both as a golden and as the worker-count
// independence check. At seed 1 the first CBD-prone k=4 networks are jobs 34
// and 35, so 36 networks give the hash simulated cells to fold; a sweep that
// found none would pin an empty aggregate, and fails instead.
func sweepHash(t *testing.T, workers int) uint64 {
	cfg := DefaultSweep(4)
	cfg.Networks = 36
	cfg.Repeats = 1
	cfg.Duration = 10 * units.Millisecond
	cfg.Workers = workers
	res, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CBDProne == 0 {
		t.Fatalf("the sweep of %d networks found no CBD-prone one: its hash would pin an empty aggregate", cfg.Networks)
	}
	return aggHash(res)
}

// checkGolden compares got with the hash recorded under name in goldenPath,
// or under -update records it there, keeping every other entry.
func checkGolden(t *testing.T, name string, got uint64) {
	t.Helper()
	h := fmt.Sprintf("%016x", got)
	want := map[string]string{}
	data, err := os.ReadFile(goldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("corrupt %s: %v", goldenPath, err)
		}
	case os.IsNotExist(err) && *update:
		// First recording.
	default:
		t.Fatalf("reading %s: %v (run with -update to record)", goldenPath, err)
	}
	if *update {
		want[name] = h
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s = %s in %s", name, h, goldenPath)
		return
	}
	w, ok := want[name]
	if !ok {
		t.Fatalf("no golden recorded for %s (run with -update)", name)
	}
	if h != w {
		t.Errorf("trace hash %s, golden %s — simulation behaviour changed; "+
			"re-record with -update if intended", h, w)
	}
}

// TestGoldenTraces regression-pins the end-to-end event streams of the
// paper's key experiments (fig9, fig12, fig19, table1) plus the canonical
// faulted scenario, and the bytes of a faulted fig9 -metrics-out report,
// against recorded FNV-1a hashes. A mismatch means the simulation (or the
// report's encoding) changed since the commit that recorded the goldens —
// intended changes re-record with -update.
func TestGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five experiments (~10 s)")
	}
	for name, run := range goldenRuns {
		t.Run(name, func(t *testing.T) { checkGolden(t, name, run(t)) })
	}
}

// TestFluidSweepGolden pins the fluid solver end to end on the slice the
// table1_fluid benchmark sweeps (k=4, seed 3, 25 ms cells, analytic checker
// on): the first repeat of the first 10 CBD-prone cells under both GFC
// schemes, each ScenarioResult hashed as the JSON the checkpoint store
// writes (its float encoding is exact).
func TestFluidSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 20 fluid cells")
	}
	cfg := DefaultSweep(4)
	cfg.Seed, cfg.Repeats, cfg.Analytic, cfg.Backend = 3, 3, true, "fluid"
	g := newHasher()
	for i, found := 0, 0; found < 10; i++ {
		topo, tab, prone := GenerateScenario(cfg.K, cfg.FailureProb, cfg.seedOf(i))
		if !prone {
			continue
		}
		found++
		for _, fc := range []FC{GFCBuf, GFCTime} {
			res, err := RunScenarioFluid(context.Background(), topo, tab, fc, cfg, cfg.Seed*1000+int64(i*cfg.Repeats))
			if err != nil {
				t.Fatalf("cell %d %v: %v", i, fc, err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			g.h.Write(data)
		}
	}
	checkGolden(t, "table1-fluid-sweep", g.sum())
}

// TestSweepWorkerIndependence pins the share-nothing parallelism contract on
// the table1 sweep: the aggregate must be bit-identical for every worker
// count (each scenario is seeded from its index and folded in order). The
// all-scheme sweep, each network run under every scheme, must give every
// scheme the result of that scheme's own sweep, at either worker count.
func TestSweepWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice")
	}
	if a, b := sweepHash(t, 1), sweepHash(t, 4); a != b {
		t.Fatalf("sweep hash differs across worker counts: %016x (1 worker) vs %016x (4)", a, b)
	}
	// resumeSweepConfig's networks are mostly CBD-prone, so the schemes'
	// results differ and the comparison has cells to fold.
	cfg := resumeSweepConfig()
	cfg.Workers = 1
	want := make([]*SweepResult, len(AllFCs()))
	for s, fc := range AllFCs() {
		res, err := RunSweep(context.Background(), fc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CBDProne == 0 {
			t.Fatalf("%s: no CBD-prone cell to compare", fc)
		}
		want[s] = res
	}
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		got, err := runSweeps(context.Background(), AllFCs(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s, fc := range AllFCs() {
			if !reflect.DeepEqual(got[s], want[s]) {
				t.Errorf("workers=%d: %s in the all-scheme sweep %+v, its own sweep %+v", workers, fc, got[s], want[s])
			}
		}
	}
}

// TestFaultedRingDeterminism replays the canonical faulted scenario twice
// and demands bit-identical traces: every random draw of the injector comes
// from its private, seeded source, in event order.
func TestFaultedRingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the faulted ring twice")
	}
	run := goldenRuns["fig9-ring-faulted"]
	if a, b := run(t), run(t); a != b {
		t.Fatalf("faulted ring not deterministic: %016x vs %016x", a, b)
	}
}

// TestGoldenKindStability pins the enum values baked into recorded hashes:
// reordering deadlock.Kind would silently shift every golden.
func TestGoldenKindStability(t *testing.T) {
	if deadlock.CircularWait != 0 || deadlock.WedgedChannel != 1 {
		t.Fatal("deadlock.Kind values changed; goldens must be re-recorded with -update")
	}
}
