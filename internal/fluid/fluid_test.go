package fluid

import (
	"testing"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/units"
)

func fig5Mapping() core.ContinuousMapping {
	return core.ContinuousMapping{C: 10 * units.Gbps, B0: 50 * units.KB, Bm: 100 * units.KB}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil mapping accepted")
	}
	if _, err := Run(Config{Mapping: Continuous{fig5Mapping()}}); err == nil {
		t.Error("nil drain accepted")
	}
	if _, err := Run(Config{
		Mapping: Continuous{fig5Mapping()},
		Drain:   ConstantDrain(0),
		Tau:     -1,
	}); err == nil {
		t.Error("negative tau accepted")
	}
}

func TestFig5FluidSteadyState(t *testing.T) {
	// The paper's Figure 5 numbers in the fluid model: with a 5 Gb/s
	// drain the queue converges to exactly B_s = 75 KB.
	res, err := Run(Config{
		Mapping: Continuous{fig5Mapping()},
		Drain:   ConstantDrain(5 * units.Gbps),
		Tau:     25 * units.Microsecond,
		Horizon: 5 * units.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steady < 74*units.KB || res.Steady > 76*units.KB {
		t.Errorf("steady queue %v, want 75KB", res.Steady)
	}
	// τ=25µs with B0 at the Theorem 4.1 bound for this mapping:
	// 4Cτ = 125KB > Bm−B0 = 50KB — B0 is beyond the safe bound, so an
	// overshoot above B_s is expected but the run still converges
	// because the drain never stalls.
	if res.QMax < res.Steady {
		t.Error("QMax below steady value")
	}
}

// StepDrain drains at `before` until t, then at `after` — the "downstream
// stalls" scenarios of the proofs.
func StepDrain(before, after units.Rate, at units.Time) Drain {
	return func(t units.Time) units.Rate {
		if t < at {
			return before
		}
		return after
	}
}

func TestStepDrainRecovery(t *testing.T) {
	// Drain stalls for 1 ms then resumes: queue rises toward Bm then
	// returns to the steady point.
	res, err := Run(Config{
		Mapping: Continuous{fig5Mapping()},
		Drain:   StepDrain(0, 5*units.Gbps, units.Millisecond),
		Tau:     5 * units.Microsecond,
		Horizon: 6 * units.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QMax < 90*units.KB {
		t.Errorf("stalled phase peaked at only %v", res.QMax)
	}
	if res.QMax > 100*units.KB {
		t.Errorf("queue exceeded Bm: %v", res.QMax)
	}
	if res.Steady < 74*units.KB || res.Steady > 76*units.KB {
		t.Errorf("post-recovery steady %v, want 75KB", res.Steady)
	}
}

func TestStagedMapping(t *testing.T) {
	st, err := core.NewStageTable(10*units.Gbps, 300*units.KB, 275*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Mapping: Staged{st},
		Drain:   ConstantDrain(5 * units.Gbps),
		Tau:     7400 * units.Nanosecond,
		Horizon: 3 * units.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The queue parks in the stage-1 band (R1 = 5G = drain).
	if res.Steady < 270*units.KB || res.Steady > 295*units.KB {
		t.Errorf("staged steady %v, want within stage 1", res.Steady)
	}
	if last := res.Rate.V[res.Rate.Len()-1]; last != 5e9 {
		t.Errorf("final rate %v, want 5G", units.Rate(last))
	}
}

// TestRunHistBoundary pins the hist sizing: `steps` slots exactly, one per
// integration step, with the lagged read staying in range even when the lag
// spans the whole horizon. The original allocation was steps+1 — one slot
// was never written — and a regression to steps−1 would panic here.
func TestRunHistBoundary(t *testing.T) {
	step := 100 * units.Nanosecond
	horizon := 100 * step
	for _, tau := range []units.Time{0, step, horizon - step, horizon, 2 * horizon} {
		res, err := Run(Config{
			Mapping: Continuous{fig5Mapping()},
			Drain:   ConstantDrain(5 * units.Gbps),
			Tau:     tau,
			Step:    step,
			Horizon: horizon,
		})
		if err != nil {
			t.Fatalf("tau %v: %v", tau, err)
		}
		steps := int(horizon / step)
		if res.Queue.Len() != steps || res.Rate.Len() != steps {
			t.Fatalf("tau %v: %d queue / %d rate samples, want %d",
				tau, res.Queue.Len(), res.Rate.Len(), steps)
		}
		// The series were preallocated to exactly `steps`; append must
		// not have regrown them.
		if cap(res.Queue.V) != steps || cap(res.Rate.V) != steps {
			t.Errorf("tau %v: series capacity %d/%d, want %d (preallocated)",
				tau, cap(res.Queue.V), cap(res.Rate.V), steps)
		}
		// A lag at or beyond the horizon keeps the sender at line rate
		// for the whole run — the warmup branch, never an out-of-range
		// hist read.
		if last := res.Rate.V[res.Rate.Len()-1]; tau >= horizon && last != 1e10 {
			t.Errorf("tau %v: final rate %v, want line rate", tau, last)
		}
	}
}

// RequiredBuffer searches for the smallest mapping ceiling B_m that keeps
// the conceptual queue below it for a stalled drain, given τ — the design
// question behind Theorem 4.1. It returns the theorem's closed-form answer
// alongside the empirical one from bisection on the fluid model, so the two
// can be compared.
func RequiredBuffer(c units.Rate, tau units.Time) (theorem, empirical units.Size) {
	theorem = 4 * units.BytesIn(c, tau) // B_m − B_0 ≥ 4Cτ

	ok := func(headroom units.Size) bool {
		bm := 10 * headroom // generous ceiling; B0 = bm − headroom
		m := core.ContinuousMapping{C: c, B0: bm - headroom, Bm: bm}
		res, err := Run(Config{
			Mapping: Continuous{m},
			Drain:   ConstantDrain(0),
			Tau:     tau,
			Horizon: 100 * tau,
		})
		if err != nil {
			return false
		}
		// At the theorem's exact bound the trajectory asymptotes to
		// B_m (l = 4 is the tight root), so integration error needs a
		// small allowance.
		return res.QMax <= bm+units.KB
	}
	lo, hi := units.Size(1), 8*theorem
	for hi-lo > theorem/128+1 {
		mid := (lo + hi) / 2
		if ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return theorem, hi
}

func TestRequiredBufferMatchesTheorem(t *testing.T) {
	// The empirical minimum headroom must be at most the theorem's (the
	// bound is sufficient) and within a small constant factor of it
	// (the bound is not wildly loose: the proof's l ≥ 4 is tight for
	// the worst-case drain).
	theorem, empirical := RequiredBuffer(10*units.Gbps, 10*units.Microsecond)
	if theorem != 4*units.BytesIn(10*units.Gbps, 10*units.Microsecond) {
		t.Fatalf("theorem headroom = %v", theorem)
	}
	if empirical > theorem {
		t.Errorf("empirical %v exceeds the theorem's sufficient bound %v", empirical, theorem)
	}
	if empirical < theorem/3 {
		t.Errorf("empirical %v far below theorem %v; bound looks vacuous", empirical, theorem)
	}
}
