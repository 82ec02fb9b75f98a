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
// RunWith layers sweep resilience on the same pool: a checkpoint Store that
// records each cell that succeeds as it finishes, so an interrupted sweep resumes
// by replaying recorded results instead of recomputing them. Every job runs
// exactly once, and only successes are recorded: a failed job is reported
// for this run alone, and the next resume recomputes it.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// Options configures RunWith.
type Options[T any] struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Checkpoint, when non-nil, is consulted before each job (a recorded
	// cell is replayed, not recomputed) and appended to as cells succeed.
	// A failed or cancelled job is NOT recorded, so a resumed sweep re-runs
	// it.
	Checkpoint *Store
	// Seed, when non-nil, supplies the seed recorded in checkpoint
	// entries for job i (replay does not use it).
	Seed func(job int) int64
}

// RunWith executes jobs on a pool of workers and returns their results in job
// order. opts.Workers <= 0 means runtime.GOMAXPROCS(0); 1 runs the jobs
// inline in order. Because jobs are share-nothing and results are collected
// by index, the returned slice is identical for every worker count — with the
// checkpoint/resume too: for a given (jobs, checkpoint state, failure
// pattern) the results do not depend on the pool.
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
// cancellation skip, one run with panic capture, job-index error wrapping,
// and checkpoint recording.
func runIndexed[T any](ctx context.Context, i int, job Job[T], opts *Options[T]) Result[T] {
	if cp := opts.Checkpoint; cp != nil {
		if e, ok := cp.Lookup(i); ok {
			return replay[T](e)
		}
	}
	if err := ctx.Err(); err != nil {
		return Result[T]{Err: fmt.Errorf("job %d: %w", i, err)}
	}
	res := runOne(ctx, job)
	if res.Err != nil {
		res.Err = fmt.Errorf("job %d: %w", i, res.Err)
	}
	// Only a success is durable. A failure is reported for this run alone:
	// budgets are not part of the sweep key, and a resume that recomputes
	// the cell re-shows the failure with its full report.
	if cp := opts.Checkpoint; cp != nil && res.Err == nil {
		var seed int64
		if opts.Seed != nil {
			seed = opts.Seed(i)
		}
		// A failed write must not corrupt the in-memory result; the
		// checkpoint is best-effort durability, not the source of truth.
		_ = cp.Record(i, seed, res.Value, nil, nil)
	}
	return res
}

// replay converts a checkpoint entry back into a Result; values round-trip
// through JSON bit-identically (Go emits the shortest float form that
// re-parses exactly).
func replay[T any](e Entry) Result[T] {
	var res Result[T]
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
