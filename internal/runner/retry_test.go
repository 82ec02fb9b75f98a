package runner

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
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

// The backoff sequence is a pure function of (seed, attempt): same inputs,
// same durations, on any host at any time.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	r := Retry{Max: 10, BackoffBase: 100 * time.Millisecond}
	for seed := int64(0); seed < 5; seed++ {
		for attempt := 1; attempt <= 10; attempt++ {
			a := r.Backoff(seed, attempt)
			b := r.Backoff(seed, attempt)
			if a != b {
				t.Fatalf("seed %d attempt %d: %v != %v", seed, attempt, a, b)
			}
			// Nominal value doubles per attempt, capped at a minute, with
			// jitter in [0.75, 1.25).
			nominal := r.BackoffBase << (attempt - 1)
			if nominal > backoffCap || nominal <= 0 {
				nominal = backoffCap
			}
			lo := time.Duration(float64(nominal) * 0.75)
			hi := time.Duration(float64(nominal) * 1.25)
			if a < lo || a >= hi {
				t.Fatalf("seed %d attempt %d: backoff %v outside [%v, %v)", seed, attempt, a, lo, hi)
			}
		}
	}
	// Different seeds de-synchronise: at least some pairs must differ.
	if r.Backoff(1, 1) == r.Backoff(2, 1) && r.Backoff(1, 2) == r.Backoff(2, 2) {
		t.Fatal("jitter does not depend on the seed")
	}
	if (Retry{}).Backoff(9, 3) != 0 {
		t.Fatal("zero policy must not back off")
	}
}

// transientErr is what a governed job surfaces on a wall-budget trip: an
// error chain containing context.DeadlineExceeded.
func transientErr(i, attempt int) error {
	return fmt.Errorf("cell %d attempt %d: %w", i, attempt, context.DeadlineExceeded)
}

// flakyJobs fails each odd job `failures` times transiently, then succeeds.
// Attempt counting is per-job local state — fine here because each job value
// is owned by exactly one worker at a time.
func flakyJobs(n, failures int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		attempt := 0
		jobs[i] = func(context.Context) (int, error) {
			attempt++
			if i%2 == 1 && attempt <= failures {
				return 0, transientErr(i, attempt)
			}
			return i * 10, nil
		}
	}
	return jobs
}

func TestRetryRecoversTransients(t *testing.T) {
	res := RunWith(context.Background(), flakyJobs(8, 2),
		Options[int]{Workers: 3, Retry: Retry{Max: 2}, Seed: func(i int) int64 { return int64(i) }})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Value != i*10 {
			t.Fatalf("job %d value %d", i, r.Value)
		}
		if i%2 == 0 {
			if r.Prov != nil {
				t.Fatalf("clean job %d carries provenance %+v", i, r.Prov)
			}
			continue
		}
		if r.Prov == nil || r.Prov.Attempts != 3 || len(r.Prov.Retries) != 2 {
			t.Fatalf("job %d provenance %+v, want 3 attempts / 2 retries", i, r.Prov)
		}
		for k, rec := range r.Prov.Retries {
			if rec.Attempt != k+1 || rec.Class != "transient" {
				t.Fatalf("job %d retry %d: %+v", i, k, rec)
			}
			if !strings.Contains(rec.Err, "deadline") {
				t.Fatalf("job %d retry %d err %q", i, k, rec.Err)
			}
		}
	}
}

func TestRetryBudgetExhaustionQuarantines(t *testing.T) {
	res := RunWith(context.Background(), flakyJobs(2, 10),
		Options[int]{Workers: 1, Retry: Retry{Max: 3}})
	if res[0].Err != nil {
		t.Fatalf("healthy job failed: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, context.DeadlineExceeded) {
		t.Fatalf("exhausted job err = %v", res[1].Err)
	}
	if res[1].Prov == nil || res[1].Prov.Attempts != 4 || len(res[1].Prov.Retries) != 3 {
		t.Fatalf("exhausted job provenance %+v", res[1].Prov)
	}
}

func TestDeterministicFailuresDoNotRetry(t *testing.T) {
	calls := 0
	jobs := []Job[int]{func(context.Context) (int, error) {
		calls++
		return 0, errors.New("analytic invariant violated")
	}}
	res := RunWith(context.Background(), jobs, Options[int]{Workers: 1, Retry: Retry{Max: 5}})
	if calls != 1 {
		t.Fatalf("deterministic failure ran %d times", calls)
	}
	if res[0].Err == nil || res[0].Prov != nil {
		t.Fatalf("res = %+v", res[0])
	}
}

func TestPanicsDoNotRetry(t *testing.T) {
	calls := 0
	jobs := []Job[int]{func(context.Context) (int, error) { calls++; panic("wedged") }}
	res := RunWith(context.Background(), jobs, Options[int]{Workers: 1, Retry: Retry{Max: 5}})
	if calls != 1 {
		t.Fatalf("panic retried: %d calls", calls)
	}
	var pe *PanicError
	if !errors.As(res[0].Err, &pe) {
		t.Fatalf("err = %v", res[0].Err)
	}
}

// The tentpole determinism contract: retry counts, backoff sequences and
// values are identical at every worker count, and survive kill-and-resume
// through the checkpoint.
func TestRetryProvenanceDeterministicAcrossWorkers(t *testing.T) {
	opts := func(workers int) Options[int] {
		return Options[int]{
			Workers: workers,
			Retry:   Retry{Max: 2, BackoffBase: time.Microsecond},
			Seed:    func(i int) int64 { return int64(i)*1e6 + 13 },
		}
	}
	ref := RunWith(context.Background(), flakyJobs(16, 2), opts(1))
	for _, workers := range []int{4, 16} {
		got := RunWith(context.Background(), flakyJobs(16, 2), opts(workers))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d results (incl. provenance) differ from serial", workers)
		}
	}
	// Provenance round-trips the checkpoint: replayed cells report the same
	// retry history as computed ones.
	path := filepath.Join(t.TempDir(), "retry.ckpt")
	st, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	o := opts(2)
	o.Checkpoint = st
	RunWith(context.Background(), flakyJobs(16, 2), o)
	st.Close()
	st2, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	o2 := opts(4)
	o2.Checkpoint = st2
	burned := make([]Job[int], 16)
	for i := range burned {
		i := i
		burned[i] = func(context.Context) (int, error) {
			t.Errorf("job %d recomputed on resume", i)
			return 0, nil
		}
	}
	replayed := RunWith(context.Background(), burned, o2)
	for i := range replayed {
		if replayed[i].Value != ref[i].Value || !reflect.DeepEqual(replayed[i].Prov, ref[i].Prov) {
			t.Fatalf("cell %d replayed %+v / %+v, want %+v / %+v",
				i, replayed[i].Value, replayed[i].Prov, ref[i].Value, ref[i].Prov)
		}
	}
}

func TestSuperviseCancelledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	fn := func(context.Context) (int, error) {
		calls++
		cancel() // cancel lands while the supervisor sleeps
		return 0, transientErr(0, calls)
	}
	_, prov, err := Supervise(ctx, 1, Retry{Max: 5, BackoffBase: time.Hour}, nil, fn)
	if calls != 1 {
		t.Fatalf("ran %d attempts past a cancellation", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if prov == nil || len(prov.Retries) != 1 {
		t.Fatalf("prov = %+v", prov)
	}
}
