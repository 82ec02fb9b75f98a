package runner

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestDefaultClassify(t *testing.T) {
	cases := []struct {
		err  error
		want FailureClass
	}{
		{nil, ClassDeterministic},
		{context.Canceled, ClassSkip},
		{fmt.Errorf("job 3: %w", context.Canceled), ClassSkip},
		{context.DeadlineExceeded, ClassTransient},
		{fmt.Errorf("cell: %w", context.DeadlineExceeded), ClassTransient},
		{errors.New("invariant violated"), ClassDeterministic},
		{&PanicError{Value: "boom"}, ClassDeterministic},
	}
	for _, c := range cases {
		if got := DefaultClassify(c.err); got != c.want {
			t.Errorf("DefaultClassify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestTransientFailuresRunOnce pins that the pool runs every job once: a
// transient failure (what a governed job surfaces on a wall-budget trip, an
// error chain containing context.DeadlineExceeded) is the job's result, not
// a reason to run it again. A resume is what recomputes it.
func TestTransientFailuresRunOnce(t *testing.T) {
	calls := make([]int, 2)
	jobs := make([]Job[int], 2)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) {
			calls[i]++
			if i == 1 {
				return 0, fmt.Errorf("cell %d: %w", i, context.DeadlineExceeded)
			}
			return i, nil
		}
	}
	res := RunWith(context.Background(), jobs, Options[int]{Workers: 1})
	if res[0].Err != nil {
		t.Fatalf("healthy job failed: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, context.DeadlineExceeded) {
		t.Fatalf("transient job err = %v", res[1].Err)
	}
	if calls[0] != 1 || calls[1] != 1 {
		t.Fatalf("jobs ran %v times, want once each", calls)
	}
}

func TestDeterministicFailuresDoNotRetry(t *testing.T) {
	calls := 0
	jobs := []Job[int]{func(context.Context) (int, error) {
		calls++
		return 0, errors.New("analytic invariant violated")
	}}
	res := RunWith(context.Background(), jobs, Options[int]{Workers: 1})
	if calls != 1 {
		t.Fatalf("deterministic failure ran %d times", calls)
	}
	if res[0].Err == nil {
		t.Fatalf("res = %+v", res[0])
	}
}

func TestPanicsDoNotRetry(t *testing.T) {
	calls := 0
	jobs := []Job[int]{func(context.Context) (int, error) { calls++; panic("wedged") }}
	res := RunWith(context.Background(), jobs, Options[int]{Workers: 1})
	if calls != 1 {
		t.Fatalf("panic retried: %d calls", calls)
	}
	var pe *PanicError
	if !errors.As(res[0].Err, &pe) {
		t.Fatalf("err = %v", res[0].Err)
	}
}
