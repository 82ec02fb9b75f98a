package eventsim

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/gfcsim/gfc/internal/units"
)

// This file property-tests the 4-ary heap against a reference model: a plain
// list of pending (time, insertion-sequence) pairs whose expected fire order
// is a stable sort by time. Any heap bug — wrong parent/child arithmetic,
// broken removeAt hole-filling, pos corruption — shows up as a divergence
// between the engine's fire order and the model's.

// refEvent is one scheduled event in the reference model.
type refEvent struct {
	at  units.Time
	seq int // insertion order, the FIFO tie-break
}

// checkHeap asserts the engine's internal consistency: the inline keys obey
// the 4-ary heap order, every entry's record points back at its slot, free
// records point nowhere, and — given the live handles in schedule order — each
// handle's slot carries exactly the time it was scheduled for, with sequence
// numbers rising in schedule order. The key lives only in the heap entry, so
// this is the check that a sift never separates a key from its id.
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
	for _, id := range e.free {
		if e.records[id].pos != -1 || e.records[id].fn != nil {
			t.Fatalf("free record %d still has pos %d / a callback", id, e.records[id].pos)
		}
	}
	if live == nil {
		return
	}
	if len(e.heap) != len(live) {
		t.Fatalf("%d heap entries for %d live handles", len(e.heap), len(live))
	}
	lastSeq := uint64(0)
	for i, ev := range live {
		r := e.records[ev.id]
		if r.gen != ev.gen || r.pos < 0 {
			t.Fatalf("live handle %+v: record gen %d pos %d", ev, r.gen, r.pos)
		}
		ent := e.heap[r.pos]
		if ent.id != ev.id || ent.at != ev.at {
			t.Fatalf("live handle %+v sits at heap[%d] = %+v", ev, r.pos, ent)
		}
		if i > 0 && ent.seq <= lastSeq {
			t.Fatalf("handle %d (schedule order) has seq %d, not above its predecessor's %d", i, ent.seq, lastSeq)
		}
		lastSeq = ent.seq
	}
}

// runModelComparison drives an engine and a reference model through a random
// interleaving of Schedule, After, Cancel (live and stale handles), Step and
// Absorb, checking the heap's consistency after every operation, then drains
// both and compares the complete fire order.
func runModelComparison(t *testing.T, seed int64) {
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
		model   []refEvent // expected: filled at drain time
		seq     int
	)
	schedule := func(at units.Time) {
		re := refEvent{at: at, seq: seq}
		seq++
		ev := e.Schedule(at, func() { fired = append(fired, re) })
		pending = append(pending, live{ev: ev, ref: re})
	}

	const ops = 400
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 4: // Schedule at an absolute time, ties likely
			schedule(e.Now() + units.Time(rng.Intn(16)))
		case k < 6: // After, including zero delay
			at := e.Now() + units.Time(rng.Intn(8))
			re := refEvent{at: at, seq: seq}
			seq++
			ev := e.After(at-e.Now(), func() { fired = append(fired, re) })
			pending = append(pending, live{ev: ev, ref: re})
		case k < 8: // Cancel a random live handle: removeAt at a random
			// heap position — over many ops this hits leaf, root and
			// interior nodes.
			if len(pending) > 0 {
				i := rng.Intn(len(pending))
				e.Cancel(pending[i].ev)
				stale = append(stale, pending[i].ev)
				pending = append(pending[:i], pending[i+1:]...)
			}
		case k < 9: // Cancel a stale handle: must be a no-op
			if len(stale) > 0 {
				e.Cancel(stale[rng.Intn(len(stale))])
			}
		default: // Step — or Absorb the head when it is due now — fires
			// the earliest pending event
			stepped := false
			if top, ok := e.Peek(); ok && top.At() == e.Now() && rng.Intn(2) == 0 {
				if !e.Absorb(top) {
					t.Fatalf("seed %d: Absorb refused the due head %+v", seed, top)
				}
				// Absorb skips the callback: do its work inline.
				for _, l := range pending {
					if l.ev == top {
						fired = append(fired, l.ref)
					}
				}
				stepped = true
			} else {
				stepped = e.Step()
			}
			if stepped {
				// The fired event leaves pending; find it by the
				// engine-reported order later. Remove the model's
				// minimum (at, seq) — that is what must have fired.
				min := 0
				for i := 1; i < len(pending); i++ {
					if pending[i].ref.at < pending[min].ref.at ||
						(pending[i].ref.at == pending[min].ref.at &&
							pending[i].ref.seq < pending[min].ref.seq) {
						min = i
					}
				}
				model = append(model, pending[min].ref)
				stale = append(stale, pending[min].ev)
				pending = append(pending[:min], pending[min+1:]...)
			}
		}
		handles := make([]Event, len(pending))
		for i, l := range pending {
			handles[i] = l.ev
		}
		checkHeap(t, e, handles)
	}

	// Drain: everything still pending fires in (at, seq) order.
	rest := make([]refEvent, 0, len(pending))
	for _, l := range pending {
		rest = append(rest, l.ref)
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].at != rest[j].at {
			return rest[i].at < rest[j].at
		}
		return rest[i].seq < rest[j].seq
	})
	model = append(model, rest...)
	e.RunAll()

	if len(fired) != len(model) {
		t.Fatalf("seed %d: engine fired %d events, model expects %d", seed, len(fired), len(model))
	}
	for i := range model {
		if fired[i] != model[i] {
			t.Fatalf("seed %d: fire order diverges at %d: engine %+v, model %+v",
				seed, i, fired[i], model[i])
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("seed %d: %d events left pending after drain", seed, e.Pending())
	}
}

func TestHeapAgainstReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		runModelComparison(t, seed)
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

func TestPeek(t *testing.T) {
	e := New()
	if _, ok := e.Peek(); ok {
		t.Fatal("Peek on empty queue reported an event")
	}
	e.Schedule(20, func() {})
	first := e.Schedule(10, func() {})
	top, ok := e.Peek()
	if !ok || top != first || top.At() != 10 {
		t.Fatalf("Peek = %+v, %v; want the t=10 event", top, ok)
	}
	if e.Pending() != 2 {
		t.Fatal("Peek consumed an event")
	}
}

func TestAbsorb(t *testing.T) {
	e := New()
	ran := false
	later := e.Schedule(10, func() { ran = true })

	// Not due yet: the head is at t=10 but the clock is at 0.
	if e.Absorb(later) {
		t.Fatal("Absorb succeeded for an event not due at the current clock")
	}

	e.Schedule(5, func() {
		// Inside the t=5 callback, head is the t=10 event: still not due.
		if e.Absorb(later) {
			t.Fatal("Absorb succeeded at t=5 for a t=10 head")
		}
	})
	e.Run(5)

	// A due event that is not the head must not absorb; the head must.
	e.Schedule(10, func() {
		// Clock is 10. Both x and y are due now, but only x is the head.
		x := e.Schedule(10, func() { t.Error("absorbed event x ran") })
		y := e.Schedule(10, func() {})
		if e.Absorb(y) {
			t.Fatal("Absorb succeeded for a due but non-head event")
		}
		if !e.Absorb(x) {
			t.Fatal("Absorb of the due head failed")
		}
	})
	e.RunAll()
	if !ran {
		t.Fatal("t=10 event did not run")
	}

	// Absorb exactly at the due instant, from inside a same-time callback.
	e2 := New()
	count := 0
	var absorbable Event
	e2.Schedule(1, func() {
		if !e2.Absorb(absorbable) {
			t.Fatal("Absorb of the due head failed")
		}
		// Absorbing credits the fired counter without running the fn.
		if e2.Fired() != 2 {
			t.Fatalf("Fired = %d after absorb, want 2", e2.Fired())
		}
		// A second absorb of the same handle is stale.
		if e2.Absorb(absorbable) {
			t.Fatal("double Absorb succeeded")
		}
	})
	absorbable = e2.Schedule(1, func() { count++ })
	e2.RunAll()
	if count != 0 {
		t.Fatal("absorbed event's callback ran")
	}
	if e2.Absorb(Event{}) {
		t.Fatal("Absorb of the zero Event succeeded")
	}
}

// Absorbed events must not let the governor hook skip its check: the hook
// fires on a fired-counter threshold, not an exact multiple.
func TestHookSurvivesAbsorb(t *testing.T) {
	e := New()
	var chain func()
	n := 0
	chain = func() {
		n++
		// Schedule two same-time events and absorb one, jumping the
		// fired counter by 2 per callback.
		tw := e.Schedule(e.Now(), func() {})
		if !e.Absorb(tw) {
			t.Fatal("absorb of just-scheduled due head failed")
		}
		e.After(1, chain)
	}
	e.Schedule(0, chain)
	calls := 0
	e.SetHook(3, func() bool { calls++; return calls < 5 })
	e.RunAll()
	if calls != 5 {
		t.Fatalf("hook ran %d times, want 5 (run must end on the 5th)", calls)
	}
}

// Slot must be a stable dense index for a live event and recycle afterwards.
func TestSlotRecycling(t *testing.T) {
	e := New()
	a := e.Schedule(1, func() {})
	slot := a.Slot()
	if slot < 0 {
		t.Fatalf("Slot = %d, want non-negative", slot)
	}
	e.RunAll()
	b := e.Schedule(2, func() {})
	if b.Slot() != slot {
		t.Fatalf("freed slot %d not recycled, got %d", slot, b.Slot())
	}
	// The recycled slot's new handle differs (generation), so a Peek
	// comparison distinguishes them.
	top, ok := e.Peek()
	if !ok || top != b || top == a {
		t.Fatalf("Peek = %+v; must match the live handle only", top)
	}
}
