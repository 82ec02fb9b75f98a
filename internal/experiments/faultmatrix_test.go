package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/units"
)

// TestFaultMatrixHeadline runs the full scheme × scenario robustness matrix
// with its defaults and pins the headline contrast of the fault-injection
// study: on the critically loaded fig9 ring,
//
//   - the clean column is clean for every scheme (no deadlock, no drops, no
//     violations, every flow progressing at line-ish rate);
//   - "resume-loss" wedges PFC — one lost RESUME during the congestion
//     squeeze holds a fabric hop shut forever and the detector reports a
//     wedged channel, not a circular wait;
//   - "feedback-loss" breaks PFC's losslessness (lost PAUSE frames overrun
//     the ingress buffers; the invariant layer attributes the violations);
//   - BFC shares PFC's on/off failure modes at queue granularity: a lost
//     QRESUME wedges it, lost QPAUSEs overrun it — per-queue state narrows
//     the blast radius but does not change the robustness class;
//   - both GFC variants survive every scenario with zero drops, zero
//     violations, no deadlock, and every flow making progress — their rates
//     never reach zero, so no single lost message can wedge them;
//   - the DCFIT column convicts exactly where pause edges close a cycle
//     (PFC resume-loss, where the wedge cascades class pauses around the
//     ring) and stays silent everywhere else.
func TestFaultMatrixHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full 5×6 fault matrix (~3 s)")
	}
	cells, err := RunFaultMatrix(FaultMatrixConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(MatrixSchemes()) * len(FaultScenarios()); len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}

	byCell := make(map[[2]string]FaultCell, len(cells))
	for _, c := range cells {
		byCell[[2]string{string(c.FC), c.Scenario}] = c
	}
	cell := func(fc FC, scenario string) FaultCell {
		c, ok := byCell[[2]string{string(fc), scenario}]
		if !ok {
			t.Fatalf("matrix missing cell (%s, %s)", fc, scenario)
		}
		return c
	}

	// Clean column: every scheme is healthy, so any trouble in a faulted
	// column is attributable to the injected scenario.
	for _, fc := range MatrixSchemes() {
		c := cell(fc, CleanScenario)
		if c.Deadlocked || c.Drops != 0 || c.Violations != 0 {
			t.Errorf("clean %s not clean: %+v", fc, c)
		}
		if c.FaultsInjected != 0 || c.FaultStats.FeedbackDropped != 0 {
			t.Errorf("clean %s recorded faults: %+v", fc, c)
		}
		if c.MinFlow == 0 {
			t.Errorf("clean %s starved a flow", fc)
		}
	}

	// PFC under resume-loss: the wedge. Rate is zero from the wedge on.
	rl := cell(PFC, "resume-loss")
	if !rl.Deadlocked {
		t.Fatal("PFC under resume-loss did not deadlock")
	}
	if rl.DeadlockKind != deadlock.WedgedChannel {
		t.Errorf("PFC resume-loss deadlock kind = %v, want wedged-channel", rl.DeadlockKind)
	}
	if rl.SteadyRate != 0 {
		t.Errorf("PFC resume-loss steady rate = %v, want 0 (ring frozen)", rl.SteadyRate)
	}
	if rl.FaultStats.FeedbackDropped == 0 {
		t.Error("PFC resume-loss dropped no feedback — scenario did not bite")
	}

	// PFC under feedback-loss: lossy PAUSE → buffer overruns. The fabric
	// keeps moving (no deadlock) but losslessness is gone, and the
	// invariant layer must have caught it.
	fl := cell(PFC, "feedback-loss")
	if fl.Drops == 0 {
		t.Error("PFC under feedback-loss dropped nothing — PAUSE loss did not overrun")
	}
	if fl.Violations == 0 {
		t.Error("PFC drops not flagged as invariant violations")
	}

	// BFC shares PFC's failure modes, per queue: a lost QRESUME wedges the
	// ring shut (losslessly), lost QPAUSEs overrun the ingress.
	brl := cell(BFC, "resume-loss")
	if !brl.Deadlocked {
		t.Fatal("BFC under resume-loss did not wedge")
	}
	if brl.DeadlockKind != deadlock.WedgedChannel {
		t.Errorf("BFC resume-loss deadlock kind = %v, want wedged-channel", brl.DeadlockKind)
	}
	if brl.Drops != 0 {
		t.Errorf("BFC resume-loss drops = %d; a wedged fabric must stay lossless", brl.Drops)
	}
	if brl.SteadyRate != 0 {
		t.Errorf("BFC resume-loss steady rate = %v, want 0 (ring frozen)", brl.SteadyRate)
	}
	bfl := cell(BFC, "feedback-loss")
	if bfl.Drops == 0 || bfl.Violations == 0 {
		t.Errorf("BFC under feedback-loss: drops=%d violations=%d, want QPAUSE loss to overrun",
			bfl.Drops, bfl.Violations)
	}

	// The GFC survival claim, across every scenario including the two that
	// break PFC: no deadlock, strictly lossless, every flow progressing.
	for _, fc := range []FC{GFCBuf, GFCTime} {
		for _, scenario := range FaultScenarios() {
			c := cell(fc, scenario)
			if c.Deadlocked {
				t.Errorf("%s deadlocked under %q at %v", fc, scenario, c.DeadlockAt)
			}
			if c.Drops != 0 || c.Violations != 0 {
				t.Errorf("%s under %q: drops=%d violations=%d, want lossless",
					fc, scenario, c.Drops, c.Violations)
			}
			if c.MinFlow == 0 {
				t.Errorf("%s under %q starved a flow", fc, scenario)
			}
		}
	}

	// Faulted scenarios actually injected: the loss/delay presets must have
	// perturbed messages for the schemes that emit feedback continuously.
	if c := cell(CBFC, "feedback-loss"); c.FaultStats.FeedbackDropped == 0 {
		t.Error("CBFC under feedback-loss lost no credits")
	}
	if c := cell(GFCTime, "feedback-delay"); c.FaultStats.FeedbackDelayed == 0 {
		t.Error("GFC-time under feedback-delay delayed nothing")
	}

	// DCFIT verdicts per cell: only pause-edge cycles are visible to it. The
	// PFC resume-loss wedge cascades class pauses around the whole ring, so
	// the edges close and DCFIT convicts; BFC's wedge is queue-scoped and
	// never closes a cycle, and CBFC/GFC emit no pause edges at all.
	for _, c := range cells {
		wantConvict := c.FC == PFC && c.Scenario == "resume-loss"
		if c.DCFITDeadlocked != wantConvict {
			t.Errorf("DCFIT verdict for (%s, %s) = %v, want %v",
				c.FC, c.Scenario, c.DCFITDeadlocked, wantConvict)
		}
	}
	if c := cell(PFC, "resume-loss"); c.DCFITDeadlocked && c.DCFITAt < c.DeadlockAt-10*units.Millisecond {
		t.Errorf("DCFIT onset %v implausibly early vs global %v", c.DCFITAt, c.DeadlockAt)
	}
}

// TestFaultMatrixDeterministic pins replay: the same config must produce
// byte-identical cells on a second run (per-cell injectors are freshly
// seeded, so no state leaks between runs or cells).
func TestFaultMatrixDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the resume-loss column twice")
	}
	cfg := FaultMatrixConfig{
		Schemes:   []FC{PFC, GFCBuf},
		Scenarios: []string{"resume-loss"},
		Duration:  30 * units.Millisecond,
	}
	a, err := RunFaultMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaultMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("cell counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("cell %d (%s under %s) differs across identical runs:\n  %+v\n  %+v",
				i, a[i].FC, a[i].Scenario, *a[i].Result, *b[i].Result)
		}
	}
}

// TestFaultMatrixSeedZero pins that seed 0 is a seed like any other: the
// injector draws a different loss sequence at 0 than at 1, as fig9's -faults
// rows do.
func TestFaultMatrixSeedZero(t *testing.T) {
	injected := func(seed int64) int64 {
		cells, err := RunFaultMatrix(FaultMatrixConfig{
			Schemes:   []FC{GFCBuf},
			Scenarios: []string{"feedback-loss"},
			Duration:  20 * units.Millisecond,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cells[0].FaultsInjected
	}
	if zero, one := injected(0), injected(1); zero == one {
		t.Errorf("seeds 0 and 1 both injected %d faults: seed 0 ran as seed 1", zero)
	}
}

// TestFaultMatrixWorkerIndependence pins the pool contract on a reduced
// matrix: every scheme under the clean column and the two scenarios that
// break the on/off schemes, with cells long enough for the resume-loss
// squeeze to bite. The cells and the rendered table must be identical for
// every worker count — 1 is the inline serial order.
func TestFaultMatrixWorkerIndependence(t *testing.T) {
	cfg := FaultMatrixConfig{
		Scenarios: []string{CleanScenario, "resume-loss", "feedback-loss"},
		Duration:  12 * units.Millisecond,
		Workers:   1,
	}
	serial, err := RunFaultMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schemes := MatrixSchemes()
	if want := len(schemes) * len(cfg.Scenarios); len(serial) != want {
		t.Fatalf("got %d cells, want %d", len(serial), want)
	}
	for i, c := range serial {
		wantFC, wantSc := schemes[i%len(schemes)], cfg.Scenarios[i/len(schemes)]
		if c.FC != wantFC || c.Scenario != wantSc {
			t.Fatalf("cell %d is (%s, %s), want (%s, %s): not scenario-major table order",
				i, c.FC, c.Scenario, wantFC, wantSc)
		}
	}
	if c := serial[len(schemes)]; c.FaultStats.FeedbackDropped == 0 {
		t.Errorf("PFC resume-loss cell dropped no feedback in %v — cells too short to prove anything", cfg.Duration)
	}
	table := FaultMatrixRows(serial).String()
	for _, workers := range []int{2, 4} {
		cfg.Workers = workers
		got, err := RunFaultMatrix(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: cells differ from the serial run:\n  %+v\n  %+v", workers, got, serial)
		}
		if gotTable := FaultMatrixRows(got).String(); gotTable != table {
			t.Errorf("workers=%d: table differs from the serial run:\n%s\n%s", workers, gotTable, table)
		}
	}
}

// TestFaultMatrixFirstErrorIsDeterministic pins error reporting on the pool:
// with a bad scheme in the middle of the list, every column has a failing
// cell, and the matrix must report the lowest-index one — the cell a serial
// run hits first — with the same text at every worker count.
func TestFaultMatrixFirstErrorIsDeterministic(t *testing.T) {
	cfg := FaultMatrixConfig{
		Schemes:   []FC{GFCBuf, FC("warp-drive"), PFC},
		Scenarios: []string{"flap", CleanScenario},
		Duration:  2 * units.Millisecond,
	}
	var want string
	for _, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		cells, err := RunFaultMatrix(cfg)
		if err == nil || cells != nil {
			t.Fatalf("workers=%d: unknown scheme accepted (cells=%v, err=%v)", workers, cells, err)
		}
		if workers == 1 {
			want = err.Error()
			if !strings.HasPrefix(want, `experiments: warp-drive under "flap":`) {
				t.Fatalf("serial error %q does not name the first failing cell (warp-drive, flap)", want)
			}
		} else if err.Error() != want {
			t.Errorf("workers=%d: error %q, want the serial run's %q", workers, err, want)
		}
	}
}

// TestFaultMatrixCancelled pins that a cancelled context is reported as
// such — not as a verdict on a cell — and that no partial matrix escapes.
func TestFaultMatrixCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		cells, err := RunFaultMatrix(FaultMatrixConfig{Ctx: ctx, Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if cells != nil {
			t.Errorf("workers=%d: cancelled matrix returned %d cells", workers, len(cells))
		}
	}
}

// TestFaultMatrixRows sanity-checks the rendered table.
func TestFaultMatrixRows(t *testing.T) {
	cells := []FaultCell{{
		Scenario: "resume-loss",
		RingResult: &RingResult{Result: &scenario.Result{
			FC: PFC, Deadlocked: true, DeadlockAt: 10 * units.Millisecond,
			DeadlockKind: deadlock.WedgedChannel,
		}},
	}}
	tab := FaultMatrixRows(cells)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tab.Rows))
	}
	if got := tab.Rows[0][2]; got != "wedged-channel at 10ms" {
		t.Errorf("verdict cell = %q", got)
	}
	if got := tab.Rows[0][3]; got != "silent" {
		t.Errorf("DCFIT cell = %q, want silent", got)
	}
}
