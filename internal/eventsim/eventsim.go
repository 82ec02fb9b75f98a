// Package eventsim provides the discrete-event simulation engine the whole
// network simulator runs on: a virtual clock and a time-ordered queue of
// events. An event is a handler and an int32 argument — the index of the
// channel, node or slot it concerns — so a simulator binds one handler per
// kind of event and allocates nothing per event. Events that share a
// timestamp fire in the order they were scheduled, which makes every run
// deterministic.
//
// The queue is a 4-ary heap with a few constant-delay FIFO lanes beside it.
// Every queued entry carries its own (time, sequence) key; the sequence comes
// from one counter at schedule time, and the engine always fires the (time,
// sequence)-minimum of everything queued. Because that comparator is a total
// order, the pop sequence — and therefore every simulation result — does not
// depend on where an entry waits.
//
// The heap takes At's absolute times. Its entries hold the key and the id of
// a pooled record with the handler, its argument and the entry's heap
// position, which is what Cancel needs. Its wide node fans the tree out to a
// quarter of the binary depth, and because the keys are inline a sift
// compares the four contiguous children (96 bytes) without touching a record.
//
// The lanes take After's relative delays. A packet simulation schedules
// almost everything After one of two constants (link propagation, full-MTU
// serialisation), and the clock never runs backwards, so events scheduled
// After the same delay are already in (time, sequence) order when they are
// scheduled. A lane is a ring buffer holding one delay at a time — it takes
// another only while empty — and is therefore sorted by construction: After
// appends, Step reads the head. A laned entry carries its handler and
// argument inline: After returns no handle, so nothing can cancel it and it
// needs no record. The minimum over the heap root and the heads of the busy
// lanes is the minimum of the whole queue, so nothing is sifted that arrived
// sorted. After falls back to the heap when every lane is busy with another
// delay; which side an event waits on is decided from its delay alone and is
// not observable.
//
// Records are recycled through a free list and addressed by stable ids, so
// the steady state of a simulation — schedule, fire, schedule again —
// allocates nothing. Handles returned by At carry a generation counter:
// recycling a record bumps its generation, which makes Cancel of a stale
// handle (already fired or already cancelled) a safe no-op without any queue
// scan.
package eventsim

import (
	"fmt"
	"math/bits"

	"github.com/gfcsim/gfc/internal/units"
)

// Event is a handle to an event scheduled with At, accepted by Cancel. It is
// a small value, free to copy and to discard. The zero Event is valid and
// refers to no scheduled event.
type Event struct {
	id  int32
	gen uint32
}

// posFree is record.pos while the record sits on the free list.
const posFree = -1

// record is one pooled heap event: the handler and argument Step calls once
// the queue has picked it, and what Cancel needs. pos is its index in
// Engine.heap, posFree while the record is on the free list. gen starts at 1
// so the zero Event handle (gen 0) never matches a live record.
type record struct {
	fn  func(int32)
	arg int32
	gen uint32
	pos int32
}

// key orders the queue: earlier time, then earlier schedule order.
type key struct {
	at  units.Time
	seq uint64
}

// before reports whether a fires before b.
func (a *key) before(b *key) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// entry is one heap slot. The ordering key lives here and nowhere else, so
// siftUp, siftDown and the head comparison never load a record to compare.
type entry struct {
	key
	id int32
}

// slot is one lane entry: the key and the event itself, inline.
type slot struct {
	key
	fn  func(int32)
	arg int32
}

// numLanes is how many distinct After delays can be in flight off the heap
// at once. The two delays that make up 91–100 % of a packet run's After calls
// need two; the rest cover the periodic timers (feedback refresh, credit
// period, detector and governor polls) that would otherwise take those two.
// scenario.TestLaneShareAcrossCatalogue is what says whether it is enough.
const numLanes = 4

// lane is a FIFO of events scheduled After the same delay d: a ring buffer
// whose capacity is a power of two, oldest slot at buf[head]. Appended under
// a monotone clock with a rising seq, it is strictly (at, seq)-sorted. d may
// change only while the lane is empty.
type lane struct {
	buf  []slot
	head uint32
	n    uint32
	d    units.Time
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

	// busy has bit i set while lanes[i] is non-empty: a queue with nothing
	// laned costs Step one zero test.
	busy  uint8
	lanes [numLanes]lane
	// After calls that went to a lane, and all After calls (LaneStats).
	laned, afters uint64

	// Run-governor hook (SetHook): hookFn is consulted roughly every
	// hookEvery fired events during Run; nil when no governor is attached,
	// so the ungoverned hot path pays a single nil check per event. The
	// check is a fired-counter threshold, armed by SetHook and re-armed
	// after each call, so the interval is counted from where the hook was
	// installed, not on multiples of the lifetime counter.
	hookFn    func() bool
	hookEvery uint64
	nextHook  uint64

	// The pad rounds the engine up to 384 bytes, a multiple of the 128-byte
	// line pair the L2 prefetcher moves as one. The engines of concurrent
	// sweep workers are allocated side by side, and two that share a pair
	// contend on every event: 13 % of a 2-worker Table 1 sweep's wall time
	// on a 2-core Xeon VM.
	_ [80]byte
}

// New returns a fresh engine with its clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() units.Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled.
func (e *Engine) Pending() int {
	n := len(e.heap)
	for i := range e.lanes {
		n += int(e.lanes[i].n)
	}
	return n
}

// LaneStats reports how many After calls were queued in a constant-delay
// lane rather than the heap, and how many After calls there were in all.
// The ratio is a property of the program's delays, not of its results.
func (e *Engine) LaneStats() (laned, after uint64) { return e.laned, e.afters }

// alloc returns a record id off the free list, growing the pool when empty.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.records = append(e.records, record{gen: 1, pos: posFree})
	return int32(len(e.records) - 1)
}

// release recycles a record that has fired or been cancelled. The generation
// bump invalidates every outstanding handle to it.
func (e *Engine) release(id int32) {
	r := &e.records[id]
	r.gen++
	r.fn = nil
	r.pos = posFree
	e.free = append(e.free, id)
}

// At runs fn(arg) at absolute time at and returns a handle Cancel accepts.
// Scheduling in the past panics: it is always a logic error in a
// discrete-event model.
func (e *Engine) At(at units.Time, fn func(int32), arg int32) Event {
	if at < e.now {
		panic(fmt.Sprintf("eventsim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("eventsim: nil event function")
	}
	id := e.alloc()
	r := &e.records[id]
	r.fn, r.arg = fn, arg
	e.heap = append(e.heap, entry{key: key{at: at, seq: e.seq}, id: id})
	e.seq++
	e.siftUp(int32(len(e.heap) - 1))
	return Event{id: id, gen: r.gen}
}

// Schedule runs fn at absolute time at: At with a handler that takes no
// argument, which costs a closure per call. The simulator's own events use
// At and After.
func (e *Engine) Schedule(at units.Time, fn func()) Event {
	if fn == nil {
		return e.At(at, nil, 0) // which panics
	}
	return e.At(at, func(int32) { fn() }, 0)
}

// After runs fn(arg) after delay d from the current time. It is At(Now()+d,
// fn, arg) in every observable respect but one: it returns no handle, so the
// event cannot be cancelled. The event waits in the lane holding delay d when
// there is one or an empty lane to start one, in the heap otherwise.
func (e *Engine) After(d units.Time, fn func(int32), arg int32) {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	at := e.now + d
	if at < e.now || fn == nil {
		e.At(at, fn, arg) // which panics
		return
	}
	e.afters++
	i := e.laneFor(d)
	if i < 0 {
		e.At(at, fn, arg)
		return
	}
	e.laned++
	l := &e.lanes[i]
	if int(l.n) == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&uint32(len(l.buf)-1)] = slot{key: key{at: at, seq: e.seq}, fn: fn, arg: arg}
	l.n++
	e.busy |= 1 << i
	e.seq++
}

// laneFor returns the index of the lane an event After delay d belongs in:
// the one holding d, else an empty one, which takes d. It returns -1 when
// every lane is busy with another delay.
func (e *Engine) laneFor(d units.Time) int {
	for i := range e.lanes {
		if e.lanes[i].d == d {
			return i
		}
	}
	if idle := ^e.busy & (1<<numLanes - 1); idle != 0 {
		i := bits.TrailingZeros8(idle)
		e.lanes[i].d = d
		return i
	}
	return -1
}

// grow doubles a full ring, unwrapping it so the oldest slot is at index 0.
func (l *lane) grow() {
	buf := make([]slot, max(16, 2*len(l.buf)))
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// Cancel prevents ev from firing. Cancelling the zero Event, an
// already-fired or an already-cancelled event is a no-op: the handle's
// generation no longer matches the (recycled) record.
func (e *Engine) Cancel(ev Event) {
	if ev.gen == 0 || int(ev.id) >= len(e.records) {
		return
	}
	if r := &e.records[ev.id]; r.gen == ev.gen {
		e.removeAt(r.pos)
		e.release(ev.id)
	}
}

// Stop makes Run return after the currently executing event completes. When
// no Run is active the flag persists and the next Run consumes it, executing
// nothing.
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
func (e *Engine) Step() bool { return e.fire(units.Never) }

// fire executes the (at, seq)-minimum of the heap root and the busy lanes'
// heads when it is due by until, and reports whether it did.
func (e *Engine) fire(until units.Time) bool {
	var top *key
	if len(e.heap) > 0 {
		top = &e.heap[0].key
	}
	from := -1
	for m := e.busy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		l := &e.lanes[i]
		if h := &l.buf[l.head].key; top == nil || h.before(top) {
			top, from = h, i
		}
	}
	if top == nil || top.at > until {
		return false
	}
	e.now = top.at
	e.fired++
	if from >= 0 {
		l := &e.lanes[from]
		s := &l.buf[l.head]
		fn, arg := s.fn, s.arg
		s.fn = nil
		l.head = (l.head + 1) & uint32(len(l.buf)-1)
		if l.n--; l.n == 0 {
			e.busy &^= 1 << from
		}
		fn(arg)
		return true
	}
	id := e.heap[0].id
	e.removeAt(0)
	r := &e.records[id]
	fn, arg := r.fn, r.arg
	// Release before running so a Cancel of this event from inside its
	// own callback is already a stale-generation no-op.
	e.release(id)
	fn(arg)
	return true
}

// Run executes events until the queue drains, the clock passes until, or
// Stop is called. It returns the time of the last executed event (or the
// unchanged clock when nothing ran). Events scheduled at exactly until still
// execute. The stop flag is cleared when Run returns, so a stopped engine
// observably resumes on the next Run.
func (e *Engine) Run(until units.Time) units.Time {
	defer func() { e.stopped = false }()
	for !e.stopped && e.fire(until) {
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
		if !x.before(&h[parent].key) {
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
			if h[k].before(&h[c].key) {
				c = k
			}
		}
		if x.before(&h[c].key) {
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
	e.records[h[i].id].pos = posFree
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
