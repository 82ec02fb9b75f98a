package experiments

import (
	"errors"
	"fmt"

	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/runner"
)

// This file is the self-healing side of the sweep: the failure taxonomy
// that decides which quarantined cells are checkpointed, and the report of
// what a resume salvaged. What the simulation itself decided — a panic, an
// invariant violation, an event-budget trip that would recur event-for-event
// — is a verdict on the cell and is recorded; a host-condition trip is a
// verdict on the host, so it is left out and a resume recomputes the cell.

// ClassifyCellFailure buckets a sweep-cell failure for the checkpoint; the
// cell itself ran once and is quarantined either way. It layers the netsim
// governor taxonomy on runner.DefaultClassify: wall-clock and heap trips
// depend on host conditions (load, co-tenants, allocator state) and are
// transient, so the cell is not recorded and a resume with a larger
// -budget-wall or -budget-heap recomputes it; event-budget and stall trips
// are functions of the deterministic event stream and would reproduce
// exactly, so they are deterministic like panics and invariant violations
// and are recorded.
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

// ResilienceSummary renders what the self-healing side did for this sweep —
// the checkpoint lines a resume had to discard — as a deterministic report.
// Empty when the checkpoint was clean.
func (s *SweepResult) ResilienceSummary() string {
	sv := s.Salvage
	if sv == nil {
		return ""
	}
	return fmt.Sprintf("checkpoint salvage: dropped %d corrupt line(s) (%s); the cells were recomputed\n",
		sv.Dropped, sv.Reason)
}
