// Package runner is a deterministic worker pool for share-nothing
// simulation experiments.
//
// Paper-scale sweeps (Table 1: hundreds of random failure scenarios × four
// flow-control schemes) are embarrassingly parallel: each scenario builds
// its own Network, which owns its own event engine and shares no mutable
// state with any other. The runner exploits that while keeping results
// bit-identical regardless of worker count, which it guarantees by
// construction:
//
//   - every job derives all randomness from its own index/seed, never from
//     shared state or scheduling order;
//   - results land in a slice indexed by job position, so aggregation
//     happens in job order no matter which worker finished first;
//   - a panicking job is captured as that job's error instead of tearing
//     down the process (one pathological scenario must not kill a sweep).
//
// RunWith layers sweep resilience on the same pool: per-job deadlines,
// a checkpoint Store that records each completed cell as it finishes
// so an interrupted sweep resumes by replaying recorded results instead of
// recomputing them, and classified retries with seed-derived backoff for
// transient failures (retry.go).
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Job computes one experiment. Implementations must be self-contained:
// seeded by the closure that built them and free of shared mutable state.
// The context is the one passed to Run; long jobs may poll it.
type Job[T any] func(ctx context.Context) (T, error)

// Result is the outcome of one job, in job order.
type Result[T any] struct {
	Value T
	// Err is the job's returned error, a *PanicError if it panicked, or
	// the context error for jobs skipped after cancellation — in every
	// case wrapped as "job %d: ..." so a failed sweep names the offending
	// cell. errors.Is/As see through the wrapping.
	Err error
	// Prov records retry provenance; nil for cells that succeeded on their
	// first attempt. It round-trips through the checkpoint, so replayed
	// cells carry the same history.
	Prov *Provenance
}

// PanicError wraps a recovered job panic so a sweep survives a pathological
// scenario and reports it instead of crashing.
type PanicError struct {
	Value any    // the recovered value
	Stack []byte // stack of the panicking goroutine
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("job panicked: %v\n%s", p.Value, p.Stack)
}

// ReplayedError is a job failure read back from a checkpoint Store. The
// original error type is gone — only its rendered message was durable — so
// resumed sweeps report the same text without the same dynamic type.
type ReplayedError struct{ Msg string }

func (e *ReplayedError) Error() string { return e.Msg }

// Options configures RunWith.
type Options[T any] struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// JobTimeout, when non-zero, derives a per-job deadline context for
	// each attempt of each job (retries get a fresh deadline). A job that
	// honours its context (e.g. via netsim.RunBounded) then fails with
	// context.DeadlineExceeded — a transient failure under the default
	// classification, so it is retried within Retry's budget and
	// quarantined only when that is exhausted.
	JobTimeout time.Duration
	// Checkpoint, when non-nil, is consulted before each job (a recorded
	// cell is replayed, not recomputed) and appended to as cells complete.
	// Jobs skipped by cancellation or quarantined on a transient failure
	// are NOT recorded, so a resumed sweep re-runs them.
	Checkpoint *Store
	// Seed, when non-nil, supplies the seed recorded in checkpoint
	// entries for job i; it also derives the cell's backoff jitter, which
	// is what makes retry sequencing reproducible (replay does not use it).
	Seed func(job int) int64
	// Retry is the transient-failure retry policy; the zero value
	// disables retrying.
	Retry Retry
	// Classify buckets a job error for the retry policy; nil means
	// DefaultClassify. Callers whose jobs surface richer error types
	// (governor trips, invariant violations) install their own taxonomy.
	Classify func(error) FailureClass
}

// RunWith executes jobs on a pool of workers and returns their results in job
// order. opts.Workers <= 0 means runtime.GOMAXPROCS(0); 1 runs the jobs
// inline in order. Because jobs are share-nothing and results are collected
// by index, the returned slice is identical for every worker count — with the
// sweep-resilience options too (per-job deadlines, checkpoint/resume,
// classified retries): for a given (jobs, checkpoint state, failure pattern)
// the results do not depend on the pool.
// When ctx is cancelled, jobs not yet started report ctx's error;
// already-running jobs finish normally.
func RunWith[T any](ctx context.Context, jobs []Job[T], opts Options[T]) []Result[T] {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result[T], len(jobs))
	if workers <= 1 {
		for i := range jobs {
			results[i] = runIndexed(ctx, i, jobs[i], &opts)
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				results[i] = runIndexed(ctx, i, jobs[i], &opts)
			}
		}()
	}
	wg.Wait()
	return results
}

// runIndexed runs job i through the resilience pipeline: checkpoint replay,
// cancellation skip, classified retries with per-attempt deadlines and
// panic capture, job-index error wrapping, and checkpoint recording.
func runIndexed[T any](ctx context.Context, i int, job Job[T], opts *Options[T]) Result[T] {
	if cp := opts.Checkpoint; cp != nil {
		if e, ok := cp.Lookup(i); ok {
			return replay[T](e)
		}
	}
	if err := ctx.Err(); err != nil {
		return Result[T]{Err: fmt.Errorf("job %d: %w", i, err)}
	}
	var seed int64
	if opts.Seed != nil {
		seed = opts.Seed(i)
	}
	classify := opts.Classify
	if classify == nil {
		classify = DefaultClassify
	}
	val, prov, err := Supervise(ctx, seed, opts.Retry, classify, func(actx context.Context) (T, error) {
		return runAttempt(actx, job, opts.JobTimeout)
	})
	res := Result[T]{Value: val, Err: err, Prov: prov}
	if res.Err != nil {
		res.Err = fmt.Errorf("job %d: %w", i, res.Err)
	}
	// Only verdicts on the cell are durable: successes (however many
	// retries they took) and deterministic failures,
	// which would reproduce. A cancellation is no verdict, and a transient
	// quarantine is a verdict on the host — budgets are not part of the
	// sweep key, so recording it would make a resume with a larger budget
	// replay the failure instead of recomputing the cell.
	if cp := opts.Checkpoint; cp != nil && (res.Err == nil || classify(res.Err) == ClassDeterministic) {
		// A failed write must not corrupt the in-memory result; the
		// checkpoint is best-effort durability, not the source of truth.
		_ = cp.Record(i, seed, res.Value, res.Err, res.Prov)
	}
	return res
}

// runAttempt is one attempt: a fresh JobTimeout deadline (so
// retries are not charged for earlier attempts' time) around the job.
// Panic capture happens in runOne, inside Supervise.
func runAttempt[T any](ctx context.Context, job Job[T], timeout time.Duration) (T, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return job(ctx)
}

// replay converts a checkpoint entry back into a Result. The recorded error
// string (already carrying its "job %d:" prefix) comes back as a
// *ReplayedError; values round-trip through JSON bit-identically (Go emits
// the shortest float form that re-parses exactly), and retry provenance
// rides along so a resumed sweep reports the same history.
func replay[T any](e Entry) Result[T] {
	res := Result[T]{Prov: e.Prov}
	if e.Err != "" {
		res.Err = &ReplayedError{Msg: e.Err}
		return res
	}
	if err := json.Unmarshal(e.Value, &res.Value); err != nil {
		res.Err = fmt.Errorf("job %d: corrupt checkpoint value: %w", e.Job, err)
	}
	return res
}

// runOne executes a single job with panic capture.
func runOne[T any](ctx context.Context, job Job[T]) (res Result[T]) {
	defer func() {
		if r := recover(); r != nil {
			res.Err = &PanicError{Value: r, Stack: stack()}
		}
	}()
	res.Value, res.Err = job(ctx)
	return res
}

func stack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}
