package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/units"
)

// resumeSweepConfig is a small but non-trivial PFC failure sweep: big enough
// that a mid-sweep kill lands between cells, small enough for CI.
func resumeSweepConfig() SweepConfig {
	cfg := DefaultSweep(4)
	cfg.Networks = 16
	cfg.Repeats = 1
	// A failure probability well above the paper's 5% makes most cells
	// CBD-prone, so the test actually simulates (and checkpoints) work.
	cfg.FailureProb = 0.25
	cfg.Duration = 5 * units.Millisecond
	cfg.Workers = 2
	return cfg
}

// aggHash reduces a sweep aggregate to the same FNV-1a fold the goldens use.
func aggHash(res *SweepResult) uint64 {
	g := newHasher()
	g.mix(uint64(res.K), uint64(res.CBDProne), uint64(res.DeadlockCases), uint64(res.Drops))
	g.mix(uint64(res.Bandwidth.Len()), uint64(res.Slowdown.Len()))
	g.float(res.Bandwidth.Mean())
	g.float(res.Bandwidth.Max())
	g.float(res.Slowdown.Mean())
	return g.sum()
}

// TestKillMidSweepResume is the end-to-end resilience contract: a sweep
// cancelled mid-flight (the SIGINT path) with a checkpoint attached, then
// resumed, must produce a bit-identical aggregate to an uninterrupted run.
func TestKillMidSweepResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice plus an interrupted pass")
	}
	cfg := resumeSweepConfig()
	ref, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg.Checkpoint = ckpt

	// Kill the sweep once the checkpoint shows durable progress, like an
	// operator ^C-ing a running sweep.
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
	if a, b := aggHash(resumed), aggHash(ref); a != b {
		t.Fatalf("resumed aggregate %016x != uninterrupted %016x", a, b)
	}
}

// TestResumeIsPureReplay pins that a second run over a complete checkpoint
// recomputes nothing and still reproduces the aggregate bit for bit —
// the JSON round-trip of every result field is exact.
func TestResumeIsPureReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice")
	}
	cfg := resumeSweepConfig()
	cfg.Checkpoint = filepath.Join(t.TempDir(), "sweep.ckpt")
	first, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage would be recomputation: a replay with a different duration
	// in the jobs would change results, so instead prove replay by timing-
	// independent equality plus the checkpoint being complete.
	second, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := aggHash(first), aggHash(second); a != b {
		t.Fatalf("replayed aggregate %016x != computed %016x", a, b)
	}
}

// TestSweepQuarantinesBudgetBlownCells pins quarantine-and-continue: with a
// deliberately tiny event budget every CBD-prone cell trips the governor,
// the sweep still completes, and the failures carry flight-recorder reports
// in deterministic job order.
func TestSweepQuarantinesBudgetBlownCells(t *testing.T) {
	cfg := resumeSweepConfig()
	cfg.Networks = 8
	cfg.Budget = netsim.Budget{MaxEvents: 2000, CheckEvery: 64}
	res, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatalf("quarantine-and-continue still errored the sweep: %v", err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("no cell tripped a 2000-event budget")
	}
	if res.CBDProne != 0 {
		t.Fatal("budget-blown cells still aggregated")
	}
	for i := 1; i < len(res.Failures); i++ {
		if res.Failures[i].Job <= res.Failures[i-1].Job {
			t.Fatal("failures not in job order")
		}
	}
	f := res.Failures[0]
	if !strings.Contains(f.Err, "event budget") {
		t.Fatalf("failure %q does not name the budget", f.Err)
	}
	if !strings.Contains(f.Report, "flight recorder:") {
		t.Fatalf("failure carries no flight-recorder report:\n%+v", f)
	}
	sum := res.FailureSummary()
	if !strings.Contains(sum, "cell") || !strings.Contains(sum, "flight recorder:") {
		t.Fatalf("summary missing diagnostics:\n%s", sum)
	}

	// Determinism of the quarantine verdict: an event budget depends only
	// on the event stream, so the summary reproduces exactly.
	res2, err := RunSweep(context.Background(), PFC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FailureSummary() != sum {
		t.Fatal("failure summary not deterministic across runs")
	}
}

// sweepRuntimeKnobs are the SweepConfig fields that change how cells run,
// not what they compute, and therefore stay out of SweepKey. Every other
// field is result-determining and must be rendered in the key.
var sweepRuntimeKnobs = map[string]bool{"Workers": true, "Budget": true, "Checkpoint": true}

// perturb changes v to a different valid value of its type.
func perturb(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.String:
		v.SetString(v.String() + "fluid")
	case reflect.Struct:
		perturb(t, v.Field(0))
	default:
		t.Fatalf("perturb: no rule for kind %v; teach the test about the new field type", v.Kind())
	}
}

// TestSweepKeyCoversEveryField walks SweepConfig by reflection: changing a
// result-determining field must change the checkpoint key (a sweep must never
// replay cells computed under a different configuration — the analytic
// checker on vs off, another backend), and
// changing a runtime knob must not (re-budgeting recomputes the same
// deterministic values, so it must not split the checkpoint namespace).
// A new field lands on one side or the other, or this test fails.
func TestSweepKeyCoversEveryField(t *testing.T) {
	base := resumeSweepConfig()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		t.Run(name, func(t *testing.T) {
			cfg := base
			perturb(t, reflect.ValueOf(&cfg).Elem().Field(i))
			changed := SweepKey(PFC, cfg) != SweepKey(PFC, base)
			if knob := sweepRuntimeKnobs[name]; changed == knob {
				t.Errorf("runtime knob = %v but changing the field changes the key = %v:\n%s\n%s",
					knob, changed, SweepKey(PFC, base), SweepKey(PFC, cfg))
			}
		})
	}
	for name := range sweepRuntimeKnobs {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("runtime-knob list names %q, which SweepConfig no longer has", name)
		}
	}
	if SweepKey(PFC, base) == SweepKey(GFCBuf, base) {
		t.Error("the scheme is not part of the key")
	}
	packet := base
	packet.Backend = "packet"
	if SweepKey(PFC, base) != SweepKey(PFC, packet) {
		t.Error(`Backend "" and "packet" are the same engine but key differently`)
	}
}
