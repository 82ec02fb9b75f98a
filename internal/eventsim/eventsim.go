// Package eventsim provides the discrete-event simulation engine the whole
// network simulator runs on: a virtual clock and a priority queue of timed
// callbacks. Events that share a timestamp fire in the order they were
// scheduled, which makes every run deterministic.
//
// The queue is a 4-ary heap whose entries carry their own (time, sequence)
// key next to the id of a pooled event record. The wider node fans out the
// tree to a quarter of the binary depth, and because the keys are inline a
// sift compares the four contiguous children (96 bytes) without touching a
// record; because the comparator (time, sequence) is a total order, the pop
// sequence — and therefore every simulation result — is identical to the
// binary heap's, whatever the entry layout.
// Records are recycled through a free list and addressed by stable ids, so
// the steady state of a simulation — schedule, fire, schedule again —
// allocates nothing. Handles returned by Schedule carry a generation
// counter: recycling a record bumps its generation, which makes Cancel of a
// stale handle (already fired or already cancelled) a safe no-op without any
// queue scan.
package eventsim

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/units"
)

// Event is a handle to a scheduled callback, returned by Schedule and After
// and accepted by Cancel. It is a small value, free to copy and to discard.
// The zero Event is valid and refers to no scheduled callback.
type Event struct {
	id  int32
	gen uint32
	at  units.Time
}

// At reports when the event was scheduled to fire.
func (e Event) At() units.Time { return e.at }

// Slot reports the event's pooled-record index: a small, dense, non-negative
// integer that is stable for the event's lifetime and recycled after it fires
// or is cancelled. Callers using Slot to index side tables must validate the
// stored handle against the full Event (which carries the generation) before
// trusting the entry — see Peek/Absorb. The zero Event's slot is 0 and is
// only distinguishable by that generation check.
func (e Event) Slot() int { return int(e.id) }

// record is one pooled event: what Cancel and Step need once the heap has
// picked it. pos is its index in Engine.heap, -1 while the record sits on the
// free list. gen starts at 1 so the zero Event handle (gen 0) never matches a
// live record.
type record struct {
	fn  func()
	gen uint32
	pos int32
}

// entry is one heap slot. The ordering key lives here and nowhere else, so
// siftUp and siftDown never load a record to compare.
type entry struct {
	at  units.Time
	seq uint64
	id  int32
}

// before reports whether a fires before b: earlier time, then earlier
// schedule order.
func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use.
type Engine struct {
	records []record
	free    []int32 // recycled record ids
	heap    []entry // 4-ary heap ordered by (at, seq)
	now     units.Time
	seq     uint64
	fired   uint64
	stopped bool

	// Run-governor hook (SetHook): hookFn is consulted roughly every
	// hookEvery fired events during Run; nil when no governor is attached,
	// so the ungoverned hot path pays a single nil check per event. The
	// check is a fired-counter threshold rather than a modulo so that
	// Absorb — which credits events without a Step — cannot jump the
	// counter over an exact boundary and silently skip a governor check.
	hookFn    func() bool
	hookEvery uint64
	nextHook  uint64
}

// New returns a fresh engine with its clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() units.Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled.
func (e *Engine) Pending() int { return len(e.heap) }

// Stopped reports whether a Stop is pending, i.e. Stop was called and no Run
// has consumed it yet.
func (e *Engine) Stopped() bool { return e.stopped }

// alloc returns a record id off the free list, growing the pool when empty.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.records = append(e.records, record{gen: 1, pos: -1})
	return int32(len(e.records) - 1)
}

// release recycles a record that has fired or been cancelled. The generation
// bump invalidates every outstanding handle to it.
func (e *Engine) release(id int32) {
	r := &e.records[id]
	r.gen++
	r.fn = nil
	r.pos = -1
	e.free = append(e.free, id)
}

// Schedule runs fn at absolute time at. Scheduling in the past panics: it is
// always a logic error in a discrete-event model.
func (e *Engine) Schedule(at units.Time, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("eventsim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("eventsim: nil event function")
	}
	id := e.alloc()
	r := &e.records[id]
	r.fn = fn
	e.heap = append(e.heap, entry{at: at, seq: e.seq, id: id})
	e.seq++
	e.siftUp(int32(len(e.heap) - 1))
	return Event{id: id, gen: r.gen, at: at}
}

// After runs fn after delay d from the current time.
func (e *Engine) After(d units.Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// Cancel prevents ev from firing. Cancelling the zero Event, an
// already-fired or an already-cancelled event is a no-op: the handle's
// generation no longer matches the (recycled) record.
func (e *Engine) Cancel(ev Event) {
	if ev.gen == 0 || int(ev.id) >= len(e.records) {
		return
	}
	r := &e.records[ev.id]
	if r.gen != ev.gen || r.pos < 0 {
		return
	}
	e.removeAt(r.pos)
	e.release(ev.id)
}

// Stop makes Run return after the currently executing event completes. When
// no Run is active the flag persists — observable via Stopped — and the next
// Run consumes it, executing nothing.
func (e *Engine) Stop() { e.stopped = true }

// SetHook installs a run-governor hook: during Run, fn is invoked after
// every `every` fired events (measured on the engine's lifetime Fired
// counter) and may return false to end the run after the current event.
// Unlike Stop, a hook-ended Run leaves no pending stop flag to consume.
// The hook is how netsim's RunBounded checks budgets, wall clocks and
// cancellation without the engine knowing about any of them; a nil fn (or
// ClearHook) detaches it. every < 1 panics.
func (e *Engine) SetHook(every uint64, fn func() bool) {
	if fn != nil && every < 1 {
		panic("eventsim: hook interval must be >= 1")
	}
	e.hookFn = fn
	e.hookEvery = every
	e.nextHook = e.fired + every
}

// ClearHook detaches any installed run-governor hook.
func (e *Engine) ClearHook() { e.hookFn = nil }

// Step executes the next pending event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	id := e.heap[0].id
	e.now = e.heap[0].at
	e.removeAt(0)
	fn := e.records[id].fn
	e.fired++
	// Release before running so a Cancel of this event from inside its
	// own callback is already a stale-generation no-op.
	e.release(id)
	fn()
	return true
}

// Peek returns a handle to the next event that would fire — the head of the
// queue — without running or removing it, and reports whether one exists.
func (e *Engine) Peek() (Event, bool) {
	if len(e.heap) == 0 {
		return Event{}, false
	}
	top := &e.heap[0]
	return Event{id: top.id, gen: e.records[top.id].gen, at: top.at}, true
}

// Absorb removes ev from the queue and credits it to the fired counter
// WITHOUT invoking its callback, and reports whether it did so. It succeeds
// only when ev is exactly the queue head (same record and generation, per
// Peek) and is due at the current clock — i.e. when ev is provably the very
// next event the engine would fire, so performing its work inline cannot
// reorder anything. The caller assumes responsibility for doing that work.
// This is how netsim drains a burst of same-timestamp deliveries in one
// callback instead of N heap pops.
func (e *Engine) Absorb(ev Event) bool {
	if ev.gen == 0 || len(e.heap) == 0 {
		return false
	}
	id := e.heap[0].id
	if id != ev.id || e.records[id].gen != ev.gen || e.heap[0].at != e.now {
		return false
	}
	e.removeAt(0)
	e.fired++
	e.release(id)
	return true
}

// Run executes events until the queue drains, the clock passes until, or
// Stop is called. It returns the time of the last executed event (or the
// unchanged clock when nothing ran). Events scheduled at exactly until still
// execute. The stop flag is cleared when Run returns, so a stopped engine
// observably resumes on the next Run.
func (e *Engine) Run(until units.Time) units.Time {
	defer func() { e.stopped = false }()
	for !e.stopped && len(e.heap) > 0 {
		// Peek: do not advance past the horizon.
		if e.heap[0].at > until {
			break
		}
		e.Step()
		if e.hookFn != nil && e.fired >= e.nextHook {
			e.nextHook = e.fired + e.hookEvery
			if !e.hookFn() {
				break
			}
		}
	}
	return e.now
}

// RunAll executes events until the queue is empty or Stop is called.
func (e *Engine) RunAll() units.Time { return e.Run(units.Never) }

// Heap layout: 4-ary, node i has parent (i-1)/4 and children 4i+1..4i+4.

// siftUp restores heap order from position i toward the root. Only the
// entries that move have their record's pos rewritten.
func (e *Engine) siftUp(i int32) {
	h, recs := e.heap, e.records
	x := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !x.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		recs[h[i].id].pos = i
		i = parent
	}
	h[i] = x
	recs[x.id].pos = i
}

// siftDown restores heap order from position i toward the leaves and reports
// whether the element moved.
func (e *Engine) siftDown(i int32) bool {
	h, recs := e.heap, e.records
	n := int32(len(h))
	x := h[i]
	start := i
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Smallest of the up-to-4 children.
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if h[k].before(&h[c]) {
				c = k
			}
		}
		if x.before(&h[c]) {
			break
		}
		h[i] = h[c]
		recs[h[i].id].pos = i
		i = c
	}
	h[i] = x
	recs[x.id].pos = i
	return i != start
}

// removeAt deletes the element at heap position i, preserving heap order.
func (e *Engine) removeAt(i int32) {
	h := e.heap
	n := int32(len(h)) - 1
	e.records[h[i].id].pos = -1
	if i == n {
		e.heap = h[:n]
		return
	}
	h[i] = h[n]
	e.heap = h[:n]
	if !e.siftDown(i) {
		e.siftUp(i)
	}
}
