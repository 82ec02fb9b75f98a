package experiments

import (
	"errors"
	"fmt"
	"strings"

	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/runner"
)

// This file is the self-healing side of the sweep: the failure taxonomy
// that decides which quarantines earn retries, and the report of what the
// supervisor absorbed. Retrying is reserved for host-condition verdicts
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

// ResilienceSummary renders what the self-healing supervisor did for this
// sweep — salvaged checkpoint lines, absorbed retries — as a deterministic,
// job-ordered report. Empty when the sweep ran clean.
func (s *SweepResult) ResilienceSummary() string {
	if s.Salvage == nil && len(s.Retried) == 0 {
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
	return b.String()
}
