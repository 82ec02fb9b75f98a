package experiments

import (
	"context"
	"fmt"

	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/runner"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
)

// CleanScenario is the fault-matrix column with no injected faults.
const CleanScenario = "clean"

// FaultScenarios lists the canonical matrix columns: a clean baseline plus
// every built-in fault preset.
func FaultScenarios() []string {
	return append([]string{CleanScenario}, faults.PresetNames()...)
}

// MatrixSchemes lists the default fault-matrix rows: the paper's four
// schemes plus BFC, the per-flow-queue challenger raced against them.
func MatrixSchemes() []FC {
	return append(AllFCs(), BFC)
}

// FaultCell is one (scheme, scenario) cell of the fault matrix: the §6.1
// ring run under an injected fault scenario, with the deadlock verdict,
// invariant outcome and progress measures the robustness comparison needs.
type FaultCell struct {
	FC       FC
	Scenario string

	Deadlocked   bool
	DeadlockAt   units.Time
	DeadlockKind deadlock.Kind
	// DCFITDeadlocked / DCFITAt report the in-data-plane detector, which
	// runs alongside the global one in every cell. It only sees pause
	// edges, so it stays silent for CBFC/GFC by design. A wedge is not
	// itself a cycle, but when its backpressure cascades class pauses all
	// the way around the ring (PFC under resume-loss) the edges do close
	// and DCFIT convicts; BFC's queue-scoped wedge never closes one, so
	// that cell stays silent — the disagreements are the comparison.
	DCFITDeadlocked bool
	DCFITAt         units.Time
	Drops           int64
	Violations      int64

	// FaultsInjected counts actuated timeline events plus feedback
	// perturbations; FeedbackDropped/Delayed break out the message-level
	// share.
	FaultsInjected  int64
	FeedbackDropped int64
	FeedbackDelayed int64

	// Delivered is the total goodput; MinFlow the worst-served flow's
	// share. A positive MinFlow means every port kept progressing.
	Delivered  units.Size
	MinFlow    units.Size
	SteadyRate units.Rate
}

// FaultMatrixConfig parameterises RunFaultMatrix.
type FaultMatrixConfig struct {
	Schemes   []FC       // default MatrixSchemes()
	Scenarios []string   // default FaultScenarios()
	Duration  units.Time // default: the steady ring's 60 ms
	// Seed seeds each cell's injector (per-cell injectors keep cells
	// independent and individually replayable).
	Seed int64
	// Ctx and Budget govern each cell's run (see RunOptions): a nil Ctx
	// means context.Background(), the zero Budget imposes no bounds.
	Ctx    context.Context
	Budget netsim.Budget
	// Retry is the transient-failure retry policy applied per cell under
	// ClassifyCellFailure (wall/heap trips retry with seed-derived
	// backoff; deterministic failures and deadlock verdicts do not). The
	// zero value disables retrying.
	Retry runner.Retry
	// Workers is the number of cells simulated concurrently, as in
	// SweepConfig.Workers: 0 means runtime.GOMAXPROCS(0), 1 runs the cells
	// inline in table order. Every cell is share-nothing and seeded from
	// its position, so the matrix is bit-identical for every worker count.
	Workers int
}

// RunFaultMatrix runs the scheme × scenario robustness matrix on the fig9
// steady ring — one host per switch, critically loaded, where every scheme is
// clean without faults, so any deadlock in a faulted column is attributable
// to the injected scenario. The headline contrast: "resume-loss" permanently pauses a hop the
// moment one RESUME frame is lost, so PFC — and BFC, whose per-queue
// QRESUME is just as losable — wedge shut (the detector fires) while both
// GFC variants, whose rates never reach zero, keep every flow progressing
// under every scenario with no losses and no invariant violations. Every
// cell also runs the in-data-plane DCFIT detector alongside the global one;
// its columns expose what delivery-time pause tracking can and cannot see.
//
// The cells are one job list on the runner pool (cfg.Workers), assembled in
// job order. A failing cell does not cancel the rest: the matrix returns the
// lowest-index failing cell's error, so the report is the same at every
// worker count; a cancelled cfg.Ctx surfaces as context.Canceled.
func RunFaultMatrix(cfg FaultMatrixConfig) ([]FaultCell, error) {
	if cfg.Schemes == nil {
		cfg.Schemes = MatrixSchemes()
	}
	if cfg.Scenarios == nil {
		cfg.Scenarios = FaultScenarios()
	}
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	// A column that names no preset fails the matrix before any cell runs.
	for _, column := range cfg.Scenarios {
		if column == CleanScenario {
			continue
		}
		if _, err := faults.Preset(column); err != nil {
			return nil, err
		}
	}

	// Job j is cell (Scenarios[j/len(Schemes)], Schemes[j%len(Schemes)]):
	// scenario-major, the order the table prints.
	nfc := len(cfg.Schemes)
	jobs := make([]runner.Job[FaultCell], len(cfg.Scenarios)*nfc)
	for j := range jobs {
		column, fc := cfg.Scenarios[j/nfc], cfg.Schemes[j%nfc]
		spec := scenario.Ring(fc, 1)
		if column != CleanScenario {
			spec = scenario.RingFaulted(fc, 1)
			spec.Faults = &scenario.FaultsSpec{Preset: column, Seed: cfg.Seed}
		}
		// Both detectors report in every cell; the global verdict is the
		// row's, DCFIT's fills its own columns.
		spec.Run.Detector = "both"
		// Each attempt rebuilds its registry and simulation from scratch,
		// so a retried cell is bit-identical to a clean first run.
		jobs[j] = func(ctx context.Context) (FaultCell, error) {
			reg := metrics.New(metrics.Options{})
			res, err := runRing(spec, RunOptions{
				Ctx: ctx, Budget: cfg.Budget, Duration: cfg.Duration, Metrics: reg,
			}, nil)
			if err != nil {
				return FaultCell{}, err
			}
			return FaultCell{
				FC: fc, Scenario: column,
				Deadlocked: res.Deadlocked, DeadlockAt: res.DeadlockAt,
				DeadlockKind:    res.DeadlockKind,
				DCFITDeadlocked: res.DCFITDeadlocked,
				DCFITAt:         res.DCFITAt,
				Drops:           res.Drops,
				Violations:      reg.Summary().Violations,
				FaultsInjected:  reg.FaultsInjected(),
				FeedbackDropped: res.FaultStats.FeedbackDropped,
				FeedbackDelayed: res.FaultStats.FeedbackDelayed,
				Delivered:       res.Delivered, MinFlow: res.MinFlow,
				SteadyRate: res.SteadyRate,
			}, nil
		}
	}
	results := runner.RunWith(cfg.Ctx, jobs, runner.Options[FaultCell]{
		Workers: cfg.Workers,
		// The backoff seed is the cell's position, making retry sequencing
		// reproducible across runs and worker counts.
		Seed:     func(j int) int64 { return cfg.Seed*1000 + int64(j)*10 + int64(j%nfc) },
		Retry:    cfg.Retry,
		Classify: ClassifyCellFailure,
	})

	// Job order, so the first error is the one a serial run would have hit.
	cells := make([]FaultCell, len(results))
	for j, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("experiments: %s under %q: %w", cfg.Schemes[j%nfc], cfg.Scenarios[j/nfc], r.Err)
		}
		cells[j] = r.Value
	}
	return cells, nil
}

// FaultMatrixRows renders the matrix as a printable table, one row per
// (scheme, scenario) cell.
func FaultMatrixRows(cells []FaultCell) *stats.Table {
	t := &stats.Table{Header: []string{
		"Scheme", "Scenario", "Deadlock", "DCFIT", "Drops", "Violations",
		"Faults", "Min flow", "Steady rate",
	}}
	for _, c := range cells {
		verdict := "no"
		if c.Deadlocked {
			verdict = fmt.Sprintf("%v at %v", c.DeadlockKind, c.DeadlockAt)
		}
		dcfit := "silent"
		if c.DCFITDeadlocked {
			dcfit = fmt.Sprintf("at %v", c.DCFITAt)
		}
		t.AddRow(string(c.FC), c.Scenario, verdict, dcfit,
			fmt.Sprintf("%d", c.Drops),
			fmt.Sprintf("%d", c.Violations),
			fmt.Sprintf("%d", c.FaultsInjected),
			c.MinFlow.String(),
			c.SteadyRate.String())
	}
	return t
}
