package main

import (
	"fmt"
	"maps"
	"runtime"
	"sort"
	"time"
)

// outcome is what one repetition's run phase produced.
type outcome struct {
	// cells is the number of completed simulation runs or sweep/matrix
	// cells; events the engine events fired, where the harness can see the
	// engine (0 otherwise).
	cells  int
	events uint64
	// sim holds the exact simulated statistics of the repetition. They
	// must repeat across repetitions: a deterministic simulator with a
	// fixed seed has no excuse.
	sim map[string]int64
	// failures lists every failed operation of the repetition (an error, a
	// governor trip, a quarantined cell or a correctness check), one
	// message each.
	failures []string
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workloadDef is one closed loop at a stated input size: build, run to a fixed
// simulated horizon or cell count, verify. The simulator only ever sees the
// inputs generated from the seed.
type workloadDef struct {
	name string
	// setup takes the spec to a runnable, analytically predicted state. It
	// is timed as setup_s and runs once per repetition, plus extra times
	// when it is short, so its median is steady.
	setup func(env *env, sp spanRef) (any, error)
	// run executes the measured phase on setup's state and verifies the
	// result in the loop.
	run func(env *env, state any, sp spanRef) *outcome
	// check runs the untimed correctness twins once per process and
	// returns (operations attempted, failure messages, extra info).
	check func(env *env) (int, []string, map[string]float64)
	// liveHeap reports live_heap_mb: the heap still reachable at the end
	// of a repetition, for the workload whose footprint users feel.
	liveHeap bool
}

// env is what a workload sees of the harness.
type env struct {
	seed int64
	size sizes
	dir  string // scratch directory for checkpoints, inside the checkout
	tr   *Tracer
}

// Summary is one end-to-end metric on one workload over the repetitions.
type Summary struct {
	Unit   string    `json:"unit"`
	Better Direction `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	// Unresolved marks a metric whose spread over the repetitions,
	// (max − min) ÷ median, exceeds its bound: a difference of one bound
	// between two commits cannot be told from noise on this run.
	Unresolved bool `json:"unresolved,omitempty"`
}

// WorkloadReport is everything measured on one workload.
type WorkloadReport struct {
	Name      string             `json:"name"`
	Reps      int                `json:"reps"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]Summary `json:"metrics"`
	// Sim are the exact simulated statistics, identical on every
	// repetition; two commits compare them exactly.
	Sim map[string]int64 `json:"sim"`
	// Info carries untimed extras of the correctness twins.
	Info map[string]float64 `json:"info,omitempty"`
	// Traced, present in a traced run, is the single traced repetition.
	Traced *TracedRep `json:"traced,omitempty"`
}

// TracedRep is the traced repetition of one workload.
type TracedRep struct {
	WallS             float64       `json:"wall_s"`
	OverheadShare     float64       `json:"overhead_share"`
	UnattributedShare float64       `json:"unattributed_share"`
	Spans             []SpanSummary `json:"spans"`
}

// FailedShare is failed operations ÷ attempted.
func (w *WorkloadReport) FailedShare() float64 {
	if w.Attempted == 0 {
		return 1
	}
	return float64(w.Failed) / float64(w.Attempted)
}

type repSample struct {
	wall, setup, run float64
	allocMB, liveMB  float64
	out              *outcome
}

// oneRep runs one repetition from a fresh build. sp is the workload's root
// span (inert when untraced).
func oneRep(w *workloadDef, env *env, root spanRef) (repSample, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	t0 := time.Now()
	ss := env.tr.start("setup", root)
	state, err := w.setup(env, ss)
	ss.end()
	t1 := time.Now()
	if err != nil {
		return repSample{}, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	rs := env.tr.start("run", root)
	out := w.run(env, state, rs)
	rs.end()
	t2 := time.Now()

	runtime.ReadMemStats(&m1)
	s := repSample{
		wall: t2.Sub(t0).Seconds(), setup: t1.Sub(t0).Seconds(), run: t2.Sub(t1).Seconds(),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		out:     out,
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	s.liveMB = float64(m1.HeapAlloc) / 1e6
	// The simulation state is still reachable here, so liveMB counts it.
	runtime.KeepAlive(state)
	return s, nil
}

// Repetitions and set-up sampling. Host speed on the reference VM shifts in
// bursts of a few seconds, so many short repetitions and a median beat a few
// long ones. A set-up shorter than shortSetup is sampled on its own, in
// batches of at least batchSetup (one call when it is longer than that), so
// its median rests on more samples than the repetitions give.
const (
	minReps      = 3
	batchSetup   = 0.02 // seconds
	shortSetup   = 0.2  // seconds
	setupSamples = 15
	setupBudget  = 1.0 // seconds
)

// sampleSetup returns the set-up time samples of a run: the repetitions'
// own when set-up is long, otherwise fresh ones taken as described above.
func sampleSetup(w *workloadDef, env *env, fromReps []float64) ([]float64, error) {
	if median(fromReps) >= shortSetup {
		return fromReps, nil
	}
	batchOf := func(n int) (float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := w.setup(env, spanRef{}); err != nil {
				return 0, fmt.Errorf("%s: setup: %w", w.name, err)
			}
		}
		return time.Since(t0).Seconds(), nil
	}
	// Size the batch on warm calls: the repetitions' own set-ups ran cold,
	// and a batch much shorter than a GC cycle reads whatever cycle it hits.
	batch := 1
	for {
		d, err := batchOf(batch)
		if err != nil {
			return nil, err
		}
		if d >= batchSetup {
			break
		}
		batch *= 2
	}
	var out []float64
	for spent := 0.0; len(out) < setupSamples && spent < setupBudget; {
		d, err := batchOf(batch)
		if err != nil {
			return nil, err
		}
		out = append(out, d/float64(batch))
		spent += d
	}
	return out, nil
}

// measure runs the workload's repetitions — at least minReps, and more
// until seconds of measured time have passed — then the untimed checks, and
// summarises. With a tracer, one more repetition is traced.
func measure(w *workloadDef, env *env, seconds float64) (*WorkloadReport, error) {
	rep := &WorkloadReport{Name: w.name, Metrics: map[string]Summary{}, Sim: map[string]int64{}}
	tr := env.tr
	env.tr = nil

	var samples []repSample
	var setups []float64
	measured := 0.0
	for len(samples) < minReps || measured < seconds {
		s, err := oneRep(w, env, spanRef{})
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
		setups = append(setups, s.setup)
		measured += s.wall
	}
	setups, err := sampleSetup(w, env, setups)
	if err != nil {
		return nil, err
	}
	rep.Reps = len(samples)

	// Operations, failures and the exactness of the simulated statistics.
	first := samples[0].out
	absorb := func(label string, out *outcome) {
		rep.Attempted += out.cells
		rep.Failed += len(out.failures)
		for _, f := range out.failures {
			rep.Failures = append(rep.Failures, label+": "+f)
		}
		if !maps.Equal(first.sim, out.sim) {
			rep.Failed++
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("%s: sim.* counts differ from rep 0: %v vs %v", label, out.sim, first.sim))
		}
	}
	for i, s := range samples {
		absorb(fmt.Sprintf("rep %d", i), s.out)
	}
	for k, v := range first.sim {
		rep.Sim["sim."+k] = v
	}
	if w.check != nil {
		n, fails, info := w.check(env)
		rep.Attempted += n
		rep.Failed += len(fails)
		rep.Failures = append(rep.Failures, fails...)
		rep.Info = info
	}

	col := func(f func(repSample) float64) []float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return xs
	}
	values := map[string][]float64{
		"wall_s":      col(func(s repSample) float64 { return s.wall }),
		"setup_s":     setups,
		"cells_per_s": col(func(s repSample) float64 { return float64(s.out.cells) / s.run }),
		"alloc_mb":    col(func(s repSample) float64 { return s.allocMB }),
	}
	defs := append([]MetricDef(nil), endToEnd...)
	if first.events > 0 {
		values[eventsPerS.Name] = col(func(s repSample) float64 { return float64(s.out.events) / s.run })
		defs = append(defs, eventsPerS)
	}
	if w.liveHeap {
		values[liveHeapMB.Name] = col(func(s repSample) float64 { return s.liveMB })
		defs = append(defs, liveHeapMB)
	}
	for _, d := range defs {
		xs := values[d.Name]
		lo, hi := minMax(xs)
		med := median(xs)
		rep.Metrics[d.Name] = Summary{
			Unit: d.Unit, Better: d.Better, Bound: d.Bound,
			Median: med, Min: lo, Max: hi,
			Unresolved: med > 0 && (hi-lo)/med > d.Bound,
		}
	}

	if tr != nil {
		env.tr = tr
		tr.workload, tr.rep = w.name, len(samples)
		root := tr.start(w.name, spanRef{})
		s, err := oneRep(w, env, root)
		root.end()
		if err != nil {
			return nil, err
		}
		absorb("traced rep", s.out)
		untraced := rep.Metrics["wall_s"].Median
		rows, gap := summariseSpans(tr.spans, w.name)
		rep.Traced = &TracedRep{
			WallS:             s.wall,
			OverheadShare:     (s.wall - untraced) / untraced,
			UnattributedShare: gap,
			Spans:             rows,
		}
	}
	return rep, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
