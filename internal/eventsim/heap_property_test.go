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
// grows wrongly, a tombstone that fires or is recycled twice — shows up as a
// divergence between the engine's fire order and the model's, or in checkHeap.

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
// Lanes: each is strictly (at, seq)-sorted from its head, every record it
// holds carries the lane marker, the busy mask says exactly which are
// non-empty, and the tombstone count is the number of laned records without a
// callback. Records: free ones are detached and listed once, and every record
// is in exactly one place — heap, lane or free list — so a recycled tombstone
// cannot have been freed twice or lost. Given the live handles in schedule
// order: Pending() is their count, each one's entry carries exactly the time
// it was scheduled for, and sequence numbers rise in schedule order. The key
// lives only in the entry, so this is the check that a sift never separates a
// key from its id.
func checkHeap(t *testing.T, e *Engine, live []Event) {
	t.Helper()
	for i := range e.heap {
		if i > 0 && e.heap[i].before(&e.heap[(i-1)>>2]) {
			t.Fatalf("heap order broken at %d: %+v before its parent %+v", i, e.heap[i], e.heap[(i-1)>>2])
		}
		if pos := e.records[e.heap[i].id].pos; pos != int32(i) {
			t.Fatalf("heap[%d] holds record %d, whose pos says %d", i, e.heap[i].id, pos)
		}
	}
	laned := map[int32]entry{}
	tombs := 0
	for i := range e.lanes {
		l := &e.lanes[i]
		if busy := e.busy&(1<<i) != 0; busy != (l.n > 0) {
			t.Fatalf("lane %d holds %d entries but its busy bit is %v", i, l.n, busy)
		}
		if len(l.buf)&(len(l.buf)-1) != 0 || int(l.n) > len(l.buf) {
			t.Fatalf("lane %d: %d entries in a ring of %d", i, l.n, len(l.buf))
		}
		for k := uint32(0); k < l.n; k++ {
			ent := l.buf[(l.head+k)&uint32(len(l.buf)-1)]
			if k > 0 {
				if prev := l.buf[(l.head+k-1)&uint32(len(l.buf)-1)]; !prev.before(&ent) {
					t.Fatalf("lane %d not sorted at %d: %+v then %+v", i, k, prev, ent)
				}
			}
			if _, dup := laned[ent.id]; dup {
				t.Fatalf("record %d is laned twice", ent.id)
			}
			laned[ent.id] = ent
			r := e.records[ent.id]
			if r.pos != posLaned {
				t.Fatalf("lane %d holds record %d, whose pos says %d", i, ent.id, r.pos)
			}
			if r.fn == nil {
				tombs++
			}
		}
	}
	if tombs != e.tombs {
		t.Fatalf("%d tombstones in the lanes, engine counts %d", tombs, e.tombs)
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
	if len(e.heap)+len(laned)+len(free) != len(e.records) {
		t.Fatalf("%d records, but %d in the heap + %d laned + %d free",
			len(e.records), len(e.heap), len(laned), len(free))
	}
	if live == nil {
		return
	}
	if e.Pending() != len(live) {
		t.Fatalf("Pending() = %d for %d live handles", e.Pending(), len(live))
	}
	lastSeq := uint64(0)
	for i, ev := range live {
		r := e.records[ev.id]
		var ent entry
		switch {
		case r.gen != ev.gen || r.fn == nil:
			t.Fatalf("live handle %+v: record gen %d, callback set: %v", ev, r.gen, r.fn != nil)
		case r.pos >= 0:
			ent = e.heap[r.pos]
		case r.pos == posLaned:
			ent = laned[ev.id]
		default:
			t.Fatalf("live handle %+v: record is on the free list", ev)
		}
		if ent.id != ev.id {
			t.Fatalf("live handle %+v is queued as %+v", ev, ent)
		}
		if i > 0 && ent.seq <= lastSeq {
			t.Fatalf("handle %d (schedule order) has seq %d, not above its predecessor's %d", i, ent.seq, lastSeq)
		}
		lastSeq = ent.seq
	}
}

// modelCoverage counts the lane situations runModelComparison reached, so the
// test can insist the random program really went there.
type modelCoverage struct {
	laned, fallback      int // After calls that took a lane / fell back to the heap
	cancelHead, cancelIn int // Cancel of a lane's head / of an entry behind it
	grewWrapped          int // a ring grew while its head was not at index 0
	skipped              int // tombstones stepped past
}

// runModelComparison drives an engine and a reference model through a random
// interleaving of Schedule, After (single and in bursts, from a set of delays
// larger than the lane count), Cancel (live and stale handles), Step and
// Run(until), checking the queue's consistency after every operation, then
// drains both and compares the complete fire order.
func runModelComparison(t *testing.T, seed int64, cov *modelCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := New()

	type live struct {
		ev  Event
		ref refEvent
	}
	var (
		pending []live     // scheduled, not yet fired or cancelled
		stale   []Event    // handles whose events fired or were cancelled
		fired   []refEvent // engine fire order
		model   []refEvent // expected fire order
		seq     int
	)
	schedule := func(at units.Time) {
		re := refEvent{at: at, seq: seq}
		seq++
		ev := e.Schedule(at, func() { fired = append(fired, re) })
		pending = append(pending, live{ev: ev, ref: re})
	}
	// More delays than lanes, so some After calls find every lane taken.
	delays := [...]units.Time{0, 2, 2, 5, 5, 5, 9, 14, 30}
	after := func(d units.Time) {
		re := refEvent{at: e.Now() + d, seq: seq}
		seq++
		before, _ := e.LaneStats()
		var wrapped [numLanes]bool
		for i := range e.lanes {
			l := &e.lanes[i]
			wrapped[i] = l.head != 0 && int(l.n) == len(l.buf)
		}
		ev := e.After(d, func() { fired = append(fired, re) })
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
		pending = append(pending, live{ev: ev, ref: re})
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
		stale = append(stale, l.ev)
		pending = append(pending[:min], pending[min+1:]...)
	}

	const ops = 500
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(20); {
		case k < 5: // Schedule at an absolute time, ties likely
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
			// interior nodes — or a tombstone at a lane's head or inside.
			if len(pending) > 0 {
				i := rng.Intn(len(pending))
				ev := pending[i].ev
				if e.records[ev.id].pos == posLaned {
					head := false
					for j := range e.lanes {
						if l := &e.lanes[j]; l.n > 0 && l.buf[l.head].id == ev.id {
							head = true
						}
					}
					if head {
						cov.cancelHead++
					} else {
						cov.cancelIn++
					}
				}
				e.Cancel(ev)
				stale = append(stale, ev)
				pending = append(pending[:i], pending[i+1:]...)
			}
		case k < 15: // Cancel a stale handle: must be a no-op
			if len(stale) > 0 {
				e.Cancel(stale[rng.Intn(len(stale))])
			}
		case k < 16: // Run to a horizon: everything due by then, in order
			until := e.Now() + units.Time(rng.Intn(6))
			tombs := e.tombs
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
			cov.skipped += tombs - e.tombs
		default: // Step fires the earliest pending event
			tombs := e.tombs
			if stepped := e.Step(); stepped != (len(pending) > 0) {
				t.Fatalf("seed %d: Step = %v with %d events pending", seed, stepped, len(pending))
			} else if stepped {
				modelPop()
			}
			cov.skipped += tombs - e.tombs
		}
		if len(fired) != len(model) {
			t.Fatalf("seed %d op %d: engine fired %d events, model %d", seed, op, len(fired), len(model))
		}
		// The clock is the last fired event's time: a tombstone stepped
		// past must not have moved it.
		if len(model) > 0 && e.Now() != model[len(model)-1].at {
			t.Fatalf("seed %d op %d: clock at %v, last event fired at %v", seed, op, e.Now(), model[len(model)-1].at)
		}
		handles := make([]Event, len(pending))
		for i, l := range pending {
			handles[i] = l.ev
		}
		checkHeap(t, e, handles)
	}

	// Drain: everything still pending fires in (at, seq) order.
	for len(pending) > 0 {
		modelPop()
	}
	e.RunAll()
	checkHeap(t, e, []Event{})

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
	if cov.laned == 0 || cov.fallback == 0 || cov.cancelHead == 0 || cov.cancelIn == 0 ||
		cov.grewWrapped == 0 || cov.skipped == 0 {
		t.Fatalf("the random program missed a lane situation: %+v", cov)
	}
}

// TestAfterEqualsSchedule runs one seeded program twice — once scheduling its
// events with After(d), once with Schedule(Now()+d), which never leaves the
// heap — and requires the identical transcript: every fired id with its
// instant and the Pending() it saw, every governor-hook call, and the clock
// and Pending() each Run returned with. The program has same-instant ties,
// After(0), cancels, a Stop from inside a callback, and Run horizons placed
// exactly on a pending event's time.
func TestAfterEqualsSchedule(t *testing.T) {
	type scheduler func(e *Engine, d units.Time, fn func()) Event
	program := func(seed int64, sched scheduler) (log []string, e *Engine) {
		rng := rand.New(rand.NewSource(seed))
		e = New()
		delays := [...]units.Time{0, 1, 1, 4, 4, 4, 11, 37, 90}
		var handles []Event
		var times []units.Time // times[i] is when handles[i] is due
		const total = 1500
		next := 0
		var spawn func()
		spawn = func() {
			if next == total {
				return
			}
			id := next
			next++
			d := delays[rng.Intn(len(delays))]
			times = append(times, e.Now()+d)
			handles = append(handles, sched(e, d, func() {
				log = append(log, fmt.Sprintf("fire %d at %v pending %d", id, e.Now(), e.Pending()))
				for n := rng.Intn(4); n > 0; n-- {
					spawn()
				}
				switch rng.Intn(12) {
				case 0:
					e.Cancel(handles[rng.Intn(len(handles))])
				case 1:
					e.Stop()
				}
			}))
		}
		e.SetHook(7, func() bool {
			log = append(log, fmt.Sprintf("hook at fired %d", e.Fired()))
			return rng.Intn(10) > 0
		})
		until := units.Time(0)
		for next < total || e.Pending() > 0 {
			for e.Pending() < 8 && next < total {
				spawn()
			}
			// Stop exactly on a recent handle's time when that is ahead of
			// the last horizon, a few ticks past it otherwise.
			if at := times[len(times)-1-rng.Intn(min(len(times), 16))]; at > until {
				until = at
			} else {
				until += units.Time(rng.Intn(6))
			}
			end := e.Run(until)
			log = append(log, fmt.Sprintf("run to %v ended at %v, pending %d", until, end, e.Pending()))
		}
		return log, e
	}
	for seed := int64(0); seed < 20; seed++ {
		viaAfter, ea := program(seed, func(e *Engine, d units.Time, fn func()) Event { return e.After(d, fn) })
		viaSchedule, es := program(seed, func(e *Engine, d units.Time, fn func()) Event { return e.Schedule(e.Now()+d, fn) })
		for i := range viaAfter {
			if i >= len(viaSchedule) || viaAfter[i] != viaSchedule[i] {
				t.Fatalf("seed %d: transcripts part at line %d:\n  After:    %s\n  Schedule: %s",
					seed, i, viaAfter[i], append(viaSchedule, "<end>")[min(i, len(viaSchedule))])
			}
		}
		if len(viaAfter) != len(viaSchedule) {
			t.Fatalf("seed %d: After transcript has %d lines, Schedule %d", seed, len(viaAfter), len(viaSchedule))
		}
		if ea.Fired() != es.Fired() || ea.Now() != es.Now() {
			t.Fatalf("seed %d: After fired %d to %v, Schedule %d to %v", seed, ea.Fired(), ea.Now(), es.Fired(), es.Now())
		}
		// Both sides of the queue must have been in play on the After run,
		// and only the heap on the other.
		if laned, after := ea.LaneStats(); laned == 0 || laned == after {
			t.Fatalf("seed %d: %d of %d After calls laned; want some, not all", seed, laned, after)
		}
		if laned, after := es.LaneStats(); laned != 0 || after != 0 {
			t.Fatalf("seed %d: Schedule-only run reports LaneStats %d, %d", seed, laned, after)
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
		for i := 0; i < n; i++ {
			i := i
			evs[i] = e.Schedule(units.Time(times[i]), func() { fired = append(fired, times[i]) })
		}
		e.Cancel(evs[victim])
		checkHeap(t, e, append(append([]Event{}, evs[:victim]...), evs[victim+1:]...))
		for e.Step() {
			checkHeap(t, e, nil)
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
	for i := 0; i < n; i++ {
		i := i
		evs[i] = e.Schedule(7, func() { fired = append(fired, i) })
	}
	for i := 0; i < n; i += 3 {
		e.Cancel(evs[i])
	}
	e.RunAll()
	if !sort.IntsAreSorted(fired) {
		t.Fatalf("FIFO tie order broken after cancels: %v", fired)
	}
	for _, i := range fired {
		if i%3 == 0 {
			t.Fatalf("cancelled event %d fired", i)
		}
	}
}
