package runner

import (
	"context"
	"errors"
	"fmt"
)

// This file is the failure taxonomy of the pool: a job failure is bucketed
// into a FailureClass, which decides only whether the failure is durable.
// Every job runs once; a failure that a rerun might clear is left out of the
// checkpoint, so the one way to recover it is to resume the sweep.

// FailureClass buckets a job failure for the checkpoint.
type FailureClass uint8

const (
	// ClassDeterministic failures reproduce on re-run: panics, invariant
	// and analytic violations, event-budget and stall-watchdog trips. They
	// are verdicts on the cell, so the cell quarantines and is
	// checkpointed.
	ClassDeterministic FailureClass = iota
	// ClassTransient failures are host-condition verdicts — wall-clock
	// budget trips, OOM-guard trips, an expired context deadline — that a
	// rerun under lighter load or a larger budget may clear. A cell
	// quarantined on one is not checkpointed, so a resume recomputes it.
	ClassTransient
	// ClassSkip marks outcomes that are not verdicts on the cell at all
	// (context cancellation): no checkpoint record, so a resumed sweep
	// re-runs the cell.
	ClassSkip
)

func (c FailureClass) String() string {
	switch c {
	case ClassDeterministic:
		return "deterministic"
	case ClassTransient:
		return "transient"
	case ClassSkip:
		return "skip"
	default:
		return fmt.Sprintf("failure class(%d)", c)
	}
}

// DefaultClassify is the classifier used when Options.Classify is nil. It
// knows only the runner's own error vocabulary: cancellation skips,
// deadline blows are transient, everything else — including panics — is
// deterministic. Callers with richer error types (e.g. *netsim.RunError)
// layer their taxonomy on top and fall back to this.
func DefaultClassify(err error) FailureClass {
	switch {
	case err == nil:
		return ClassDeterministic
	case errors.Is(err, context.Canceled):
		return ClassSkip
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTransient
	}
	return ClassDeterministic
}

// Retry is what remains of the retired in-process retry policy: nothing. It
// is kept only so benchmark/ compiles unchanged; ROADMAP 6(c) deletes it.
type Retry struct{}

// Provenance is what remains of the retired per-cell retry history:
// nothing. It is kept only so benchmark/ compiles unchanged; ROADMAP 6(c)
// deletes it.
type Provenance struct{}

// Supervise runs fn once with panic capture and returns a nil *Provenance;
// the seed, policy and classifier are ignored. It is kept only so
// benchmark/ compiles unchanged; ROADMAP 6(c) deletes it.
func Supervise[T any](ctx context.Context, _ int64, _ Retry, _ func(error) FailureClass, fn Job[T]) (T, *Provenance, error) {
	res := runOne(ctx, fn)
	return res.Value, nil, res.Err
}
