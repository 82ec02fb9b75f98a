package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/runner"
	"github.com/gfcsim/gfc/internal/topology"
)

// This file is the self-healing side of the sweep: the failure taxonomy
// that decides which quarantines earn retries, and the degraded-fidelity
// fallback that recomputes a retry-exhausted packet cell on the fluid
// backend — the paper's gentle-degradation philosophy applied to the
// harness itself. Retrying is reserved for host-condition verdicts
// (DCFIT's persistence-window insight: distinguish transient pause storms
// from real deadlock before acting); anything the simulation itself
// decided — a panic, an invariant violation, an event-budget trip that
// would recur event-for-event — quarantines immediately.

// ClassifyCellFailure buckets a sweep-cell failure for the retry policy.
// It layers the netsim governor taxonomy on runner.DefaultClassify:
// wall-clock and heap trips depend on host conditions (load, co-tenants,
// allocator state) and are transient; event-budget and stall trips are
// functions of the deterministic event stream and would reproduce exactly,
// so they are deterministic like panics and invariant violations.
func ClassifyCellFailure(err error) runner.FailureClass {
	var re *netsim.RunError
	if errors.As(err, &re) {
		switch re.Reason {
		case netsim.StopWallBudget, netsim.StopHeapBudget:
			return runner.ClassTransient
		case netsim.StopCancelled:
			// Defer to the context error it unwraps to (Canceled → skip,
			// DeadlineExceeded → transient).
		default:
			return runner.ClassDeterministic
		}
	}
	return runner.DefaultClassify(err)
}

// DegradedEscalation is the constant Escalation marker on repeats computed
// by the degraded-fidelity fallback. The string is constant — the variable
// cause (which governor trip exhausted the retry budget) lives in the
// cell's Provenance.Degraded — so degraded results stay bit-identical
// across resumes regardless of how the original failure rendered.
const DegradedEscalation = "degraded-fidelity fallback"

// runDegradedRepeat recomputes one repeat on the fluid backend after the
// packet path exhausted its retry budget. The fallback result stands only
// where the analytic model vouches for the fluid verdict on its own — no
// triage boundary applies (see triageRepeat). Where auto mode would escalate
// to packet fidelity, a degrading cell has already lost packet fidelity, so
// it refuses with the same reason and the cell quarantines. The
// failure-injection hook deliberately does not apply here: it models
// primary-path host trouble.
func runDegradedRepeat(ctx context.Context, topo *topology.Topology, tab *routing.Table, fc FC, cfg SweepConfig, repeatSeed int64) (*ScenarioResult, error) {
	fres, reason, err := triageRepeat(ctx, topo, tab, fc, cfg, repeatSeed)
	if err != nil {
		return nil, err
	}
	if reason != "" {
		return nil, errors.New("cannot degrade: " + reason)
	}
	fres.Escalation = DegradedEscalation
	return fres, nil
}

// CellRetries is one cell's absorbed-retry record, folded from the runner's
// provenance in job order.
type CellRetries struct {
	Job int `json:"job"`
	// Attempts counts primary-path attempts (1 + retries taken).
	Attempts int `json:"attempts"`
	// Retries lists the transient failures absorbed, with their
	// seed-derived backoffs.
	Retries []runner.RetryRecord `json:"retries"`
}

// DegradedCell is one cell whose value came from the degraded-fidelity
// fallback: the job index and the transient cause that exhausted its retry
// budget.
type DegradedCell struct {
	Job   int    `json:"job"`
	Cause string `json:"cause"`
}

// ResilienceSummary renders what the self-healing supervisor did for this
// sweep — salvaged checkpoint lines, absorbed retries, degraded cells — as
// a deterministic, job-ordered report. Empty when the sweep ran clean.
func (s *SweepResult) ResilienceSummary() string {
	if s.Salvage == nil && len(s.Retried) == 0 && len(s.Degraded) == 0 {
		return ""
	}
	var b strings.Builder
	if sv := s.Salvage; sv != nil {
		fmt.Fprintf(&b, "checkpoint salvage: dropped %d corrupt line(s) (%s); the cells were recomputed\n",
			sv.Dropped, sv.Reason)
	}
	for _, r := range s.Retried {
		fmt.Fprintf(&b, "cell %d: %d attempt(s), %d transient failure(s) absorbed:\n",
			r.Job, r.Attempts, len(r.Retries))
		for _, rec := range r.Retries {
			fmt.Fprintf(&b, "  attempt %d (+%v backoff): %s\n", rec.Attempt, rec.Backoff, rec.Err)
		}
	}
	for _, d := range s.Degraded {
		fmt.Fprintf(&b, "cell %d: degraded to fluid fidelity after: %s\n", d.Job, d.Cause)
	}
	return b.String()
}
