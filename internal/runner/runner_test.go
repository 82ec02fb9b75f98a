package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// run is RunWith with only a worker count.
func run[T any](ctx context.Context, jobs []Job[T], workers int) []Result[T] {
	return RunWith(ctx, jobs, Options[T]{Workers: workers})
}

func TestResultsInJobOrder(t *testing.T) {
	const n = 100
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func(context.Context) (int, error) {
			// Stagger finishing order: later jobs finish first.
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
			return i * i, nil
		}
	}
	res := run(context.Background(), jobs, 8)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Value != i*i {
			t.Fatalf("result %d = %d, want %d", i, r.Value, i*i)
		}
	}
}

// The determinism contract: seeded jobs produce identical result slices for
// every worker count.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 64
	mkJobs := func() []Job[uint64] {
		jobs := make([]Job[uint64], n)
		for i := 0; i < n; i++ {
			seed := int64(i) + 17
			jobs[i] = func(context.Context) (uint64, error) {
				rng := rand.New(rand.NewSource(seed))
				var acc uint64
				for k := 0; k < 1000; k++ {
					acc = acc*31 + uint64(rng.Int63())
				}
				return acc, nil
			}
		}
		return jobs
	}
	base := run(context.Background(), mkJobs(), 1)
	for _, workers := range []int{2, 3, 8, n + 5, 0} {
		got := run(context.Background(), mkJobs(), workers)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d results differ from serial", workers)
		}
	}
}

func TestPanicCapture(t *testing.T) {
	jobs := []Job[int]{
		func(context.Context) (int, error) { return 1, nil },
		func(context.Context) (int, error) { panic("scenario 1 exploded") },
		func(context.Context) (int, error) { return 3, nil },
	}
	res := run(context.Background(), jobs, 2)
	if res[0].Value != 1 || res[2].Value != 3 {
		t.Fatal("healthy jobs disturbed by a panicking sibling")
	}
	var pe *PanicError
	if !errors.As(res[1].Err, &pe) {
		t.Fatalf("panic not captured: %v", res[1].Err)
	}
	if !strings.Contains(pe.Error(), "scenario 1 exploded") {
		t.Fatalf("panic message lost: %s", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
}

func TestJobErrors(t *testing.T) {
	boom := fmt.Errorf("boom")
	jobs := []Job[int]{
		func(context.Context) (int, error) { return 0, nil },
		func(context.Context) (int, error) { return 0, boom },
	}
	res := run(context.Background(), jobs, 1)
	if !errors.Is(res[1].Err, boom) {
		t.Fatalf("err = %v, want boom", res[1].Err)
	}
	// Satellite contract: failures name their cell deterministically.
	if !strings.HasPrefix(res[1].Err.Error(), "job 1: ") {
		t.Fatalf("err %q does not carry its job index", res[1].Err)
	}
	if !errors.Is(res[1].Err, boom) || res[0].Err != nil {
		t.Fatalf("errors = %v, %v; want nil and boom", res[0].Err, res[1].Err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	const n = 50
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = func(context.Context) (int, error) {
			if started.Add(1) == 2 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return 1, nil
		}
	}
	res := run(ctx, jobs, 2)
	var done, skipped int
	for _, r := range res {
		switch {
		case r.Err == nil:
			done++
		case errors.Is(r.Err, context.Canceled):
			skipped++
		default:
			t.Fatalf("unexpected error: %v", r.Err)
		}
	}
	if skipped == 0 {
		t.Fatal("cancellation did not skip any queued job")
	}
	if done+skipped != n {
		t.Fatalf("done %d + skipped %d != %d", done, skipped, n)
	}
}

func TestZeroJobs(t *testing.T) {
	if res := run[int](context.Background(), nil, 4); len(res) != 0 {
		t.Fatalf("len = %d", len(res))
	}
}

func TestDefaultWorkers(t *testing.T) {
	jobs := make([]Job[int], 10)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) { return i, nil }
	}
	res := run(context.Background(), jobs, 0) // GOMAXPROCS
	for i, r := range res {
		if r.Value != i {
			t.Fatalf("result %d = %d", i, r.Value)
		}
	}
}

func TestJobTimeoutQuarantines(t *testing.T) {
	jobs := []Job[int]{
		func(context.Context) (int, error) { return 1, nil },
		func(ctx context.Context) (int, error) {
			// A job that honours its context, like a governed simulation.
			<-ctx.Done()
			return 0, ctx.Err()
		},
		func(context.Context) (int, error) { return 3, nil },
	}
	res := RunWith(context.Background(), jobs, Options[int]{Workers: 1, JobTimeout: 10 * time.Millisecond})
	if res[0].Value != 1 || res[2].Value != 3 {
		t.Fatal("deadline-blown cell disturbed its siblings")
	}
	if !errors.Is(res[1].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", res[1].Err)
	}
	if !strings.HasPrefix(res[1].Err.Error(), "job 1: ") {
		t.Fatalf("err %q does not name its cell", res[1].Err)
	}
}

// The cancellation-ordering contract under -race: cancellation during a
// sweep yields, for every job, either a clean result (started before the
// cancel won the race) or that job's own index-wrapped context error —
// never a torn or misattributed result.
func TestCancellationOrdering(t *testing.T) {
	const n, workers = 64, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var running atomic.Int32
	release := make(chan struct{})
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) {
			if running.Add(1) == workers {
				cancel() // all workers busy: cancel mid-sweep
			}
			<-release
			return i, nil
		}
	}
	go func() {
		<-ctx.Done()
		close(release) // let in-flight jobs finish after the cancel
	}()
	res := RunWith(ctx, jobs, Options[int]{Workers: workers})
	var done, skipped int
	for i, r := range res {
		switch {
		case r.Err == nil:
			if r.Value != i {
				t.Fatalf("job %d returned %d: result misattributed", i, r.Value)
			}
			done++
		case errors.Is(r.Err, context.Canceled):
			if want := fmt.Sprintf("job %d: ", i); !strings.HasPrefix(r.Err.Error(), want) {
				t.Fatalf("skip error %q lacks prefix %q", r.Err, want)
			}
			skipped++
		default:
			t.Fatalf("job %d: unexpected error %v", i, r.Err)
		}
	}
	if done < workers {
		t.Fatalf("only %d jobs completed; the %d in-flight ones must finish", done, workers)
	}
	if skipped == 0 {
		t.Fatal("no queued job was skipped by the cancel")
	}
	if done+skipped != n {
		t.Fatalf("done %d + skipped %d != %d", done, skipped, n)
	}
}
