package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/gfcsim/gfc/internal/units"
)

// TestEngineFillsWholeLinePairs holds Engine to a multiple of 128 bytes, so
// engines allocated side by side never share a prefetched line pair: resize
// its pad when a field comes or goes.
func TestEngineFillsWholeLinePairs(t *testing.T) {
	if s := unsafe.Sizeof(Engine{}); s%128 != 0 {
		t.Errorf("Engine is %d bytes; resize its pad to a multiple of 128", s)
	}
}

// nop is a handler that does nothing.
func nop(int32) {}

func TestZeroValueReady(t *testing.T) {
	var e Engine
	var order []int
	log := func(i int32) { order = append(order, int(i)) }
	e.At(5, log, 2)
	e.After(7, log, 3) // a lane's first entry
	e.After(0, log, 1)
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", e.Pending())
	}
	e.Run(units.Never)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 7 {
		t.Fatalf("Now() = %v, want 7", e.Now())
	}
}

func TestOrdering(t *testing.T) {
	e := New()
	var order []int
	log := func(i int32) { order = append(order, int(i)) }
	e.At(30, log, 3)
	e.At(10, log, 1)
	e.Schedule(20, func() { order = append(order, 2) }) // the no-argument wrapper
	e.Run(units.Never)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := int32(0); i < 100; i++ {
		e.At(42, func(i int32) { order = append(order, int(i)) }, i)
	}
	e.Run(units.Never)
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events not FIFO: %v", order)
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at units.Time
	e.At(100, func(int32) {
		e.After(50, func(int32) { at = e.Now() }, 0)
	}, 0)
	e.Run(units.Never)
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.At(100, func(int32) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, nop, 0)
	}, 0)
	e.Run(units.Never)
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil fn did not panic")
		}
	}()
	New().At(1, nil, 0)
}

func TestNegativeAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	New().After(-1, nop, 0)
}

func TestCancel(t *testing.T) {
	e := New()
	ran := false
	ev := e.At(10, func(int32) { ran = true }, 0)
	e.Cancel(ev)
	e.Run(units.Never)
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double-cancel and zero-handle cancel are safe.
	e.Cancel(ev)
	e.Cancel(Event{})
}

func TestCancelOneOfMany(t *testing.T) {
	e := New()
	var got []int
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = e.At(units.Time(i), func(i int32) { got = append(got, int(i)) }, int32(i))
	}
	e.Cancel(evs[3])
	e.Cancel(evs[7])
	e.Run(units.Never)
	want := []int{0, 1, 2, 4, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunHorizon(t *testing.T) {
	e := New()
	var fired []units.Time
	for _, at := range []units.Time{10, 20, 30, 40} {
		e.At(at, func(int32) { fired = append(fired, e.Now()) }, 0)
	}
	e.Run(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v within horizon 25", fired)
	}
	// Events at exactly the horizon run.
	e.Run(30)
	if len(fired) != 3 {
		t.Fatalf("fired %v within horizon 30", fired)
	}
	e.Run(units.Never)
	if len(fired) != 4 {
		t.Fatalf("fired %v after the run", fired)
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(units.Time(i), func(int32) {
			count++
			if count == 4 {
				e.Stop()
			}
		}, 0)
	}
	e.Run(units.Never)
	if count != 4 {
		t.Fatalf("count = %d after Stop, want 4", count)
	}
	// Run can resume after Stop.
	e.Run(units.Never)
	if count != 10 {
		t.Fatalf("count = %d after resume, want 10", count)
	}
}

func TestFiredAndPending(t *testing.T) {
	e := New()
	e.At(1, nop, 0)
	e.After(2, nop, 0)
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Step()
	if e.Fired() != 1 || e.Pending() != 1 {
		t.Fatalf("Fired=%d Pending=%d", e.Fired(), e.Pending())
	}
}

func TestStepEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue reported work")
	}
}

// Property: for any random schedule, events fire in nondecreasing time order
// and the engine clock equals the last event time.
func TestRandomScheduleOrdered(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var fired []units.Time
		k := int(n%64) + 1
		for i := 0; i < k; i++ {
			at := units.Time(rng.Int63n(1000))
			e.At(at, func(int32) { fired = append(fired, e.Now()) }, 0)
		}
		e.Run(units.Never)
		if len(fired) != k {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Now() == fired[len(fired)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset removes exactly that subset.
func TestRandomCancel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		const n = 40
		ran := make([]bool, n)
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = e.At(units.Time(rng.Int63n(100)), func(i int32) { ran[i] = true }, int32(i))
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				cancelled[i] = true
				e.Cancel(evs[i])
			}
		}
		e.Run(units.Never)
		for i := 0; i < n; i++ {
			if ran[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Stop from inside an event must halt the run after that event and be
// consumed by it.
func TestStopInsideEvent(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 6; i++ {
		e.At(units.Time(i), func(int32) {
			count++
			if count == 2 {
				e.Stop()
			}
		}, 0)
	}
	e.Run(100)
	if count != 2 {
		t.Fatalf("count = %d after in-event Stop, want 2", count)
	}
	if e.stopped {
		t.Fatal("Run returned without clearing the stop flag")
	}
	e.Run(100)
	if count != 6 {
		t.Fatalf("count = %d after resume, want 6", count)
	}
}

// Stop before Run persists, makes that Run execute
// nothing, and is consumed so the following Run proceeds.
func TestStopBeforeRun(t *testing.T) {
	e := New()
	ran := 0
	e.At(1, func(int32) { ran++ }, 0)
	e.Stop()
	if !e.stopped {
		t.Fatal("stop flag clear right after Stop")
	}
	e.Run(units.Never)
	if ran != 0 {
		t.Fatal("stopped Run executed an event")
	}
	if e.stopped {
		t.Fatal("Run did not consume the stop flag")
	}
	e.Run(units.Never)
	if ran != 1 {
		t.Fatal("engine did not resume after consuming Stop")
	}
}

// Cancelling an event that already fired must be a no-op even after its
// pooled record has been recycled for a newer event: the stale handle's
// generation no longer matches, so the newer event still fires.
func TestCancelFiredEvent(t *testing.T) {
	e := New()
	firstRan := false
	first := e.At(1, func(int32) { firstRan = true }, 0)
	e.Run(units.Never)
	if !firstRan {
		t.Fatal("first event did not run")
	}
	secondRan := false
	e.At(2, func(int32) { secondRan = true }, 0) // recycles first's record
	e.Cancel(first)                              // stale handle: must not touch the recycled record
	e.Cancel(first)
	e.Run(units.Never)
	if !secondRan {
		t.Fatal("cancelling a fired event's stale handle killed a live event")
	}
}

// Cancelling an event from inside its own callback is a no-op.
func TestCancelSelfInsideCallback(t *testing.T) {
	e := New()
	var self Event
	after := false
	self = e.At(1, func(int32) {
		e.Cancel(self)
		e.At(2, func(int32) { after = true }, 0)
	}, 0)
	e.Run(units.Never)
	if !after {
		t.Fatal("self-cancel corrupted the queue")
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+units.Time(i%100), nop, 0)
		e.Step()
	}
	// Exactly one event fires per op; the explicit metric lets benchjson
	// derive ns/event uniformly across eventsim and netsim benchmarks.
	b.ReportMetric(1, "events/op")
}

// BenchmarkAfterHold is the lane-side twin of BenchmarkScheduleRun: a hold
// model driven by After with the two delays a packet run is made of (link
// propagation, full-MTU serialisation), so every pop and every push is a
// ring-buffer step and the heap stays empty.
func BenchmarkAfterHold(b *testing.B) {
	e := New()
	delays := [2]units.Time{1000, 1200}
	for i := 0; i < 64; i++ {
		e.After(delays[i&1], nop, int32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.After(delays[i&1], nop, int32(i))
	}
	b.StopTimer()
	if laned, after := e.LaneStats(); laned != after {
		b.Fatalf("%d of %d After calls laned; the benchmark means to measure the lanes", laned, after)
	}
	b.ReportMetric(1, "events/op")
}

// BenchmarkEngineScheduleCancel measures the schedule+cancel round trip —
// the kick and refill timer pattern of netsim. The pooled records must
// make this allocation-free in steady state.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := New()
	// Keep a standing population so cancellation exercises interior heap
	// removals, not just the root.
	var standing [64]Event
	for i := range standing {
		standing[i] = e.At(units.Time(i+1000000), nop, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.At(units.Time(i%1000), nop, 0)
		e.Cancel(ev)
		j := i % len(standing)
		e.Cancel(standing[j])
		standing[j] = e.At(units.Time(i+2000000), nop, 0)
	}
}

// BenchmarkScheduleRunDeep keeps a standing population of 4096 pending
// events so every Schedule/Step works a heap ~6 levels deep (4-ary) — the
// regime where heap arity and cache locality matter, unlike the shallow
// queues of BenchmarkScheduleRun.
func BenchmarkScheduleRunDeep(b *testing.B) {
	e := New()
	const standing = 4096
	for i := 0; i < standing; i++ {
		e.At(units.Time(i), nop, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+units.Time(standing+i%1024), nop, 0)
		e.Step()
	}
	b.ReportMetric(1, "events/op")
}

// chain schedules a self-rescheduling event 1 tick apart that calls Stop on
// its stopAt-th firing (never when stopAt is 0), and returns its firing count.
func chain(e *Engine, stopAt int) *int {
	n := new(int)
	var fn func(int32)
	fn = func(int32) {
		if *n++; *n == stopAt {
			e.Stop()
		}
		e.After(1, fn, 0)
	}
	e.At(0, fn, 0)
	return n
}

func TestRunForFiresExactlyN(t *testing.T) {
	e := New()
	n := chain(e, 0)
	for i, slice := range []uint64{1, 10, 7, 4096, 3} {
		before := *n
		if !e.RunFor(units.Never, slice) {
			t.Fatalf("slice %d: an unbounded chain reported the run over", i)
		}
		if got := *n - before; got != int(slice) {
			t.Fatalf("slice %d fired %d events, want %d", i, got, slice)
		}
	}
	// The horizon ends a slice early, and that is not a count stop.
	if e.RunFor(e.Now()+5, 100) {
		t.Fatal("a slice cut by its horizon reported a count stop")
	}
	if e.Now() != units.Time(*n-1) {
		t.Fatalf("clock %v after %d events 1 tick apart", e.Now(), *n)
	}
	// A drained queue is not a count stop either.
	d := New()
	d.At(0, nop, 0)
	if d.RunFor(units.Never, 2) || d.Fired() != 1 {
		t.Fatalf("drained slice: fired %d", d.Fired())
	}
}

func TestRunForStopIsNotACountStop(t *testing.T) {
	for _, stopAt := range []int{3, 10} { // inside the slice, on its last event
		e := New()
		n := chain(e, stopAt)
		if e.RunFor(units.Never, 10) {
			t.Fatalf("Stop on event %d reported as a count stop", stopAt)
		}
		if *n != stopAt {
			t.Fatalf("Stop on event %d: run went on to %d", stopAt, *n)
		}
		if e.stopped {
			t.Fatalf("Stop on event %d left a pending stop flag", stopAt)
		}
		// The next slice resumes the chain.
		if !e.RunFor(units.Never, 5) || *n != stopAt+5 {
			t.Fatalf("Stop on event %d: next slice fired %d events", stopAt, *n-stopAt)
		}
	}
}
