package eventsim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/gfcsim/gfc/internal/units"
)

// This file property-tests the queue — the 4-ary heap and the constant-delay
// lanes beside it — against a reference model: a plain list of pending (time,
// insertion-sequence) pairs whose expected fire order is a stable sort by
// time. Any queue bug — wrong parent/child arithmetic, broken removeAt
// hole-filling, pos corruption, a lane out of order, a ring that wraps or
// grows wrongly, a record recycled twice — shows up as a divergence between
// the engine's fire order and the model's, or in checkHeap.

// refEvent is one scheduled event in the reference model.
type refEvent struct {
	at  units.Time
	seq int // insertion order, the FIFO tie-break
}

func (a refEvent) before(b refEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// checkHeap asserts the engine's internal consistency. Heap: the inline keys
// obey the 4-ary heap order and every entry's record points back at its slot.
// Lanes: each is strictly (at, seq)-sorted from its head, every slot it holds
// carries a handler, and the busy mask says exactly which are non-empty.
// Records: free ones are detached and listed once, and every record is either
// in the heap or on the free list. Given the live At handles in schedule
// order and the number of events After queued and not yet fired: Pending() is
// their sum, each handle's entry is the heap slot its record points at, and
// sequence numbers rise in schedule order. The key lives only in the entry,
// so this is the check that a sift never separates a key from its id.
func checkHeap(t *testing.T, e *Engine, live []Event, afters int) {
	t.Helper()
	for i := range e.heap {
		if i > 0 && e.heap[i].before(&e.heap[(i-1)>>2].key) {
			t.Fatalf("heap order broken at %d: %+v before its parent %+v", i, e.heap[i], e.heap[(i-1)>>2])
		}
		if pos := e.records[e.heap[i].id].pos; pos != int32(i) {
			t.Fatalf("heap[%d] holds record %d, whose pos says %d", i, e.heap[i].id, pos)
		}
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		if busy := e.busy&(1<<i) != 0; busy != (l.n > 0) {
			t.Fatalf("lane %d holds %d entries but its busy bit is %v", i, l.n, busy)
		}
		if len(l.buf)&(len(l.buf)-1) != 0 || int(l.n) > len(l.buf) {
			t.Fatalf("lane %d: %d entries in a ring of %d", i, l.n, len(l.buf))
		}
		for k := uint32(0); k < l.n; k++ {
			s := &l.buf[(l.head+k)&uint32(len(l.buf)-1)]
			if k > 0 {
				if prev := &l.buf[(l.head+k-1)&uint32(len(l.buf)-1)]; !prev.before(&s.key) {
					t.Fatalf("lane %d not sorted at %d: %+v then %+v", i, k, prev.key, s.key)
				}
			}
			if s.fn == nil {
				t.Fatalf("lane %d slot %d has no handler", i, k)
			}
		}
	}
	free := map[int32]bool{}
	for _, id := range e.free {
		if e.records[id].pos != posFree || e.records[id].fn != nil {
			t.Fatalf("free record %d still has pos %d / a callback", id, e.records[id].pos)
		}
		if free[id] {
			t.Fatalf("record %d is on the free list twice", id)
		}
		free[id] = true
	}
	if len(e.heap)+len(free) != len(e.records) {
		t.Fatalf("%d records, but %d in the heap + %d free", len(e.records), len(e.heap), len(free))
	}
	if live == nil {
		return
	}
	if e.Pending() != len(live)+afters {
		t.Fatalf("Pending() = %d for %d live handles and %d After events", e.Pending(), len(live), afters)
	}
	lastSeq := uint64(0)
	for i, ev := range live {
		r := e.records[ev.id]
		if r.gen != ev.gen || r.fn == nil || r.pos < 0 {
			t.Fatalf("live handle %+v: record gen %d, pos %d, callback set: %v", ev, r.gen, r.pos, r.fn != nil)
		}
		ent := e.heap[r.pos]
		if ent.id != ev.id {
			t.Fatalf("live handle %+v is queued as %+v", ev, ent)
		}
		if i > 0 && ent.seq <= lastSeq {
			t.Fatalf("handle %d (schedule order) has seq %d, not above its predecessor's %d", i, ent.seq, lastSeq)
		}
		lastSeq = ent.seq
	}
}

// modelCoverage counts the queue situations runModelComparison reached, so
// the test can insist the random program really went there.
type modelCoverage struct {
	laned, fallback int // After calls that took a lane / fell back to the heap
	grewWrapped     int // a ring grew while its head was not at index 0
	cancelled       int // Cancel of a live At handle
}

// runModelComparison drives an engine and a reference model through a random
// interleaving of At, After (single and in bursts, from a set of delays
// larger than the lane count), Cancel (live and stale handles), Step and
// Run(until), checking the queue's consistency after every operation, then
// drains both and compares the complete fire order.
func runModelComparison(t *testing.T, seed int64, cov *modelCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := New()

	// live is one pending event of the model; ev is zero for an After.
	type live struct {
		ev  Event
		ref refEvent
	}
	var (
		pending []live     // scheduled, not yet fired or cancelled
		stale   []Event    // handles whose events fired or were cancelled
		fired   []refEvent // engine fire order
		model   []refEvent // expected fire order
		refs    []refEvent // refs[seq] is the event scheduled seq-th
	)
	record := func(seq int32) { fired = append(fired, refs[seq]) }
	next := func(at units.Time) refEvent {
		re := refEvent{at: at, seq: len(refs)}
		refs = append(refs, re)
		return re
	}
	schedule := func(at units.Time) {
		re := next(at)
		ev := e.At(at, record, int32(re.seq))
		pending = append(pending, live{ev: ev, ref: re})
	}
	// More delays than lanes, so some After calls find every lane taken.
	delays := [...]units.Time{0, 2, 2, 5, 5, 5, 9, 14, 30}
	after := func(d units.Time) {
		re := next(e.Now() + d)
		before, _ := e.LaneStats()
		var wrapped [numLanes]bool
		for i := range e.lanes {
			l := &e.lanes[i]
			wrapped[i] = l.head != 0 && int(l.n) == len(l.buf)
		}
		e.After(d, record, int32(re.seq))
		if now, _ := e.LaneStats(); now > before {
			cov.laned++
		} else {
			cov.fallback++
		}
		for i := range e.lanes {
			if wrapped[i] && e.lanes[i].head == 0 && int(e.lanes[i].n) > 1 {
				cov.grewWrapped++
			}
		}
		pending = append(pending, live{ref: re})
	}
	// modelPop moves the model's minimum, which is what the engine must fire
	// next, to the expected fire order.
	modelPop := func() {
		min := 0
		for i := 1; i < len(pending); i++ {
			if pending[i].ref.before(pending[min].ref) {
				min = i
			}
		}
		l := pending[min]
		model = append(model, l.ref)
		if l.ev != (Event{}) {
			stale = append(stale, l.ev)
		}
		pending = append(pending[:min], pending[min+1:]...)
	}

	const ops = 500
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(20); {
		case k < 5: // At an absolute time, ties likely
			schedule(e.Now() + units.Time(rng.Intn(16)))
		case k < 9: // After, including zero delay
			after(delays[rng.Intn(len(delays))])
		case k < 10: // a burst After one delay: fills a ring until it grows
			d := delays[rng.Intn(len(delays))]
			for n := 1 + rng.Intn(24); n > 0; n-- {
				after(d)
			}
		case k < 14: // Cancel a random live handle: removeAt at a random
			// heap position — over many ops this hits leaf, root and
			// interior nodes.
			var handles []int
			for i, l := range pending {
				if l.ev != (Event{}) {
					handles = append(handles, i)
				}
			}
			if len(handles) > 0 {
				i := handles[rng.Intn(len(handles))]
				ev := pending[i].ev
				e.Cancel(ev)
				cov.cancelled++
				stale = append(stale, ev)
				pending = append(pending[:i], pending[i+1:]...)
			}
		case k < 15: // Cancel a stale handle: must be a no-op
			if len(stale) > 0 {
				e.Cancel(stale[rng.Intn(len(stale))])
			}
		case k < 16: // Run to a horizon: everything due by then, in order
			until := e.Now() + units.Time(rng.Intn(6))
			for {
				min, any := refEvent{}, false
				for _, l := range pending {
					if !any || l.ref.before(min) {
						min, any = l.ref, true
					}
				}
				if !any || min.at > until {
					break
				}
				modelPop()
			}
			e.Run(until)
		default: // Step fires the earliest pending event
			if stepped := e.Step(); stepped != (len(pending) > 0) {
				t.Fatalf("seed %d: Step = %v with %d events pending", seed, stepped, len(pending))
			} else if stepped {
				modelPop()
			}
		}
		if len(fired) != len(model) {
			t.Fatalf("seed %d op %d: engine fired %d events, model %d", seed, op, len(fired), len(model))
		}
		if len(model) > 0 && e.Now() != model[len(model)-1].at {
			t.Fatalf("seed %d op %d: clock at %v, last event fired at %v", seed, op, e.Now(), model[len(model)-1].at)
		}
		var handles []Event
		afters := 0
		for _, l := range pending {
			if l.ev == (Event{}) {
				afters++
			} else {
				handles = append(handles, l.ev)
			}
		}
		checkHeap(t, e, append([]Event{}, handles...), afters)
	}

	// Drain: everything still pending fires in (at, seq) order.
	for len(pending) > 0 {
		modelPop()
	}
	e.Run(units.Never)
	checkHeap(t, e, []Event{}, 0)

	if len(fired) != len(model) {
		t.Fatalf("seed %d: engine fired %d events, model expects %d", seed, len(fired), len(model))
	}
	for i := range model {
		if fired[i] != model[i] {
			t.Fatalf("seed %d: fire order diverges at %d: engine %+v, model %+v",
				seed, i, fired[i], model[i])
		}
	}
	if e.Pending() != 0 || len(e.free) != len(e.records) {
		t.Fatalf("seed %d: after the drain %d events pending, %d of %d records free",
			seed, e.Pending(), len(e.free), len(e.records))
	}
}

func TestHeapAgainstReferenceModel(t *testing.T) {
	var cov modelCoverage
	for seed := int64(0); seed < 50; seed++ {
		runModelComparison(t, seed, &cov)
	}
	t.Logf("coverage: %+v", cov)
	if cov.laned == 0 || cov.fallback == 0 || cov.grewWrapped == 0 || cov.cancelled == 0 {
		t.Fatalf("the random program missed a queue situation: %+v", cov)
	}
}

// TestAfterEqualsSchedule runs one seeded program twice — once scheduling its
// events with After(d), once with At(Now()+d), which never leaves the heap —
// and requires the identical transcript: every fired id with its instant and
// the Pending() it saw, the count after every full RunFor slice, and the
// clock and Pending() each run ended with. The program has same-instant ties, After(0), Stop
// from inside a callback, Run horizons placed exactly on a pending event's
// time, and cancellable timers (At on both runs) that its events cancel.
func TestAfterEqualsSchedule(t *testing.T) {
	type scheduler func(e *Engine, d units.Time, fn func(int32), arg int32)
	program := func(seed int64, sched scheduler) (log []string, e *Engine) {
		rng := rand.New(rand.NewSource(seed))
		e = New()
		delays := [...]units.Time{0, 1, 1, 4, 4, 4, 11, 37, 90}
		var timers []Event
		var times []units.Time // times[i] is when the i-th event is due
		const total = 1500
		next := 0
		var spawn func()
		var fire func(id int32)
		fire = func(id int32) {
			log = append(log, fmt.Sprintf("fire %d at %v pending %d", id, e.Now(), e.Pending()))
			for n := rng.Intn(4); n > 0; n-- {
				spawn()
			}
			switch rng.Intn(12) {
			case 0:
				if len(timers) > 0 {
					e.Cancel(timers[rng.Intn(len(timers))])
				}
			case 1:
				e.Stop()
			}
		}
		spawn = func() {
			if next == total {
				return
			}
			id := int32(next)
			next++
			d := delays[rng.Intn(len(delays))]
			times = append(times, e.Now()+d)
			if rng.Intn(8) == 0 {
				timers = append(timers, e.At(e.Now()+d, fire, id))
				return
			}
			sched(e, d, fire, id)
		}
		until := units.Time(0)
		for next < total || e.Pending() > 0 {
			for e.Pending() < 8 && next < total {
				spawn()
			}
			// Stop exactly on a recent event's time when that is ahead of
			// the last horizon, a few ticks past it otherwise.
			if at := times[len(times)-1-rng.Intn(min(len(times), 16))]; at > until {
				until = at
			} else {
				until += units.Time(rng.Intn(6))
			}
			// Run in slices of 7 events, as the run governor does, and
			// abandon the run between two slices now and then.
			for e.RunFor(until, 7) {
				log = append(log, fmt.Sprintf("slice at fired %d", e.Fired()))
				if rng.Intn(10) == 0 {
					break
				}
			}
			log = append(log, fmt.Sprintf("run to %v ended at %v, pending %d", until, e.Now(), e.Pending()))
		}
		return log, e
	}
	for seed := int64(0); seed < 20; seed++ {
		viaAfter, ea := program(seed, func(e *Engine, d units.Time, fn func(int32), arg int32) { e.After(d, fn, arg) })
		viaAt, es := program(seed, func(e *Engine, d units.Time, fn func(int32), arg int32) { e.At(e.Now()+d, fn, arg) })
		for i := range viaAfter {
			if i >= len(viaAt) || viaAfter[i] != viaAt[i] {
				t.Fatalf("seed %d: transcripts part at line %d:\n  After: %s\n  At:    %s",
					seed, i, viaAfter[i], append(viaAt, "<end>")[min(i, len(viaAt))])
			}
		}
		if len(viaAfter) != len(viaAt) {
			t.Fatalf("seed %d: After transcript has %d lines, At %d", seed, len(viaAfter), len(viaAt))
		}
		if ea.Fired() != es.Fired() || ea.Now() != es.Now() {
			t.Fatalf("seed %d: After fired %d to %v, At %d to %v", seed, ea.Fired(), ea.Now(), es.Fired(), es.Now())
		}
		// Both sides of the queue must have been in play on the After run,
		// and only the heap on the other.
		if laned, after := ea.LaneStats(); laned == 0 || laned == after {
			t.Fatalf("seed %d: %d of %d After calls laned; want some, not all", seed, laned, after)
		}
		if laned, after := es.LaneStats(); laned != 0 || after != 0 {
			t.Fatalf("seed %d: At-only run reports LaneStats %d, %d", seed, laned, after)
		}
	}
}

// TestCancelAtEveryHeapPosition schedules n events and cancels exactly one at
// each possible heap position (root, every interior node, every leaf),
// checking the survivors still fire in order. This pins removeAt's
// hole-filling for both the siftDown and siftUp repair paths of the 4-ary
// layout.
func TestCancelAtEveryHeapPosition(t *testing.T) {
	const n = 85 // > 4 full levels of a 4-ary heap (1+4+16+64)
	for victim := 0; victim < n; victim++ {
		e := New()
		evs := make([]Event, n)
		var fired []int
		// Shuffled times so heap positions differ from schedule order.
		rng := rand.New(rand.NewSource(int64(victim)))
		times := rng.Perm(n)
		for i := range evs {
			evs[i] = e.At(units.Time(times[i]), func(i int32) { fired = append(fired, times[i]) }, int32(i))
		}
		e.Cancel(evs[victim])
		checkHeap(t, e, append(append([]Event{}, evs[:victim]...), evs[victim+1:]...), 0)
		for e.Step() {
			checkHeap(t, e, nil, 0)
		}
		if len(fired) != n-1 {
			t.Fatalf("victim %d: fired %d events, want %d", victim, len(fired), n-1)
		}
		if !sort.IntsAreSorted(fired) {
			t.Fatalf("victim %d: out-of-order fire sequence %v", victim, fired)
		}
		for _, ts := range fired {
			if ts == times[victim] {
				t.Fatalf("victim %d: cancelled event fired", victim)
			}
		}
	}
}

// Equal-timestamp FIFO order must hold through interleaved cancellations.
func TestFIFOTiesSurviveCancels(t *testing.T) {
	e := New()
	const n = 64
	var fired []int
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = e.At(7, func(i int32) { fired = append(fired, int(i)) }, int32(i))
	}
	for i := 0; i < n; i += 3 {
		e.Cancel(evs[i])
	}
	e.Run(units.Never)
	if !sort.IntsAreSorted(fired) {
		t.Fatalf("FIFO tie order broken after cancels: %v", fired)
	}
	for _, i := range fired {
		if i%3 == 0 {
			t.Fatalf("cancelled event %d fired", i)
		}
	}
}
