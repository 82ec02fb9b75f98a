package runner

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// This file is the classified-retry half of the self-healing supervisor:
// job failures are bucketed into a FailureClass, and only transient ones
// (host-condition trips: wall budgets, per-job deadlines, OOM guards) earn
// retries. The backoff sequence is a pure function of the cell's seed and
// the attempt index, so the provenance a sweep records — how many retries,
// which simulated backoffs — is bit-identical at any worker count and
// across kill-and-resume, exactly like the results themselves.

// FailureClass buckets a job failure for the retry policy.
type FailureClass uint8

const (
	// ClassDeterministic failures reproduce on re-run: panics, invariant
	// and analytic violations, event-budget and stall-watchdog trips.
	// Retrying cannot change the outcome, so the cell quarantines
	// immediately.
	ClassDeterministic FailureClass = iota
	// ClassTransient failures are host-condition verdicts — wall-clock
	// budget trips, per-job deadlines, OOM-guard trips — that a retry
	// under lighter load may clear. A cell quarantined on one is not
	// checkpointed, so a resume (perhaps with a larger budget) recomputes
	// it.
	ClassTransient
	// ClassSkip marks outcomes that are not verdicts on the cell at all
	// (context cancellation): no retry, no checkpoint record, so a
	// resumed sweep re-runs the cell.
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

// Retry is the transient-failure retry policy of a pool: up to Max extra
// attempts per job, each preceded by a seed-derived exponential backoff.
// The zero value disables retries.
type Retry struct {
	// Max is how many retries a job gets after its first attempt; 0
	// disables retrying.
	Max int
	// BackoffBase is the nominal backoff before the first retry; it
	// doubles per retry (capped at one minute) and is jittered by a
	// factor in [0.75, 1.25) derived from the cell's seed. 0 retries
	// immediately.
	BackoffBase time.Duration
}

// backoffCap bounds the exponential growth so a large Max cannot park a
// worker for hours.
const backoffCap = time.Minute

// Backoff returns the deterministic backoff that precedes retry number
// attempt (1-based: the attempt that just failed). It is a pure function
// of (seed, attempt) — no clock, no shared RNG — which is what keeps the
// recorded sequence identical across worker counts and resumes.
func (r Retry) Backoff(seed int64, attempt int) time.Duration {
	if r.BackoffBase <= 0 || attempt <= 0 {
		return 0
	}
	d := r.BackoffBase
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	// splitmix64 of (seed, attempt) → jitter factor in [0.75, 1.25):
	// enough spread to de-synchronise cells that tripped together.
	j := splitmix64(uint64(seed) + uint64(attempt)*0x9e3779b97f4a7c15)
	frac := 0.75 + 0.5*float64(j>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash used to
// derive backoff jitter from (seed, attempt).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RetryRecord is one transient failure absorbed by the retry policy.
type RetryRecord struct {
	// Attempt is the 1-based attempt that failed.
	Attempt int `json:"attempt"`
	// Err is the failure's rendered message.
	Err string `json:"err"`
	// Backoff is the seed-derived pause that preceded the retry.
	Backoff time.Duration `json:"backoff_ns"`
	// Class is the failure's classification (always "transient" today;
	// recorded so future taxonomies stay readable in old checkpoints).
	Class string `json:"class"`
}

// Provenance records how a cell's value was obtained when the path was
// anything other than "succeeded first try". It rides
// both the in-memory Result and the checkpoint Entry, so replayed cells
// report the same history as computed ones.
type Provenance struct {
	// Attempts counts attempts (1 + retries taken).
	Attempts int `json:"attempts"`
	// Retries lists the transient failures absorbed before the final
	// attempt, in order.
	Retries []RetryRecord `json:"retries,omitempty"`
}

// Supervise runs fn under the classified-retry policy: the single-call form
// of the Retry/Classify options, which RunWith applies to every job and a
// caller outside a pool can apply to one run. Transient failures retry with
// the seed-derived backoff; the returned Provenance is nil when fn succeeded
// on its first attempt. A cancellation during backoff returns the context
// error (class skip: no verdict).
func Supervise[T any](ctx context.Context, seed int64, r Retry, classify func(error) FailureClass, fn Job[T]) (T, *Provenance, error) {
	if classify == nil {
		classify = DefaultClassify
	}
	var prov *Provenance
	var res Result[T]
	for attempt := 1; ; attempt++ {
		res = runOne(ctx, fn)
		if prov != nil {
			prov.Attempts = attempt
		}
		if res.Err == nil || attempt > r.Max || classify(res.Err) != ClassTransient {
			break
		}
		backoff := r.Backoff(seed, attempt)
		if prov == nil {
			prov = &Provenance{Attempts: attempt}
		}
		prov.Retries = append(prov.Retries, RetryRecord{
			Attempt: attempt, Err: res.Err.Error(),
			Backoff: backoff, Class: ClassTransient.String(),
		})
		if !sleepCtx(ctx, backoff) {
			return res.Value, prov, ctx.Err()
		}
	}
	return res.Value, prov, res.Err
}

// sleepCtx pauses for the simulated backoff, honouring cancellation; it
// reports whether the full pause elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
