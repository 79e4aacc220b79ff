// Package sim is a deterministic discrete-event simulation core. It
// provides the event engine, reproducible random streams and the two
// primitives used to model the paper's application and database
// servers: each server admits a bounded number of requests "at the
// same time via time-sharing" from FIFO waiting queues (§2, §5), which
// is a Semaphore (the multiprogramming limit and its FIFO admission)
// in front of a processor-sharing Station (the CPU).
//
// The engine replaces the paper's physical WebSphere/DB2 testbed: the
// Trade benchmark simulator (internal/trade) is built on these
// primitives and produces the "measured" numbers that every prediction
// method is scored against.
//
// The event core is allocation-free in steady state: fired and
// discarded events return to a per-engine free list and are reused by
// later Schedule calls, and the priority queue is a concrete-typed
// binary heap rather than container/heap, so no interface boxing or
// dynamic dispatch happens per event. One Engine is strictly
// single-goroutine; concurrency lives a level up, where independent
// engines run in parallel (internal/parallel).
package sim

import (
	"fmt"
	"math"
)

// Event is a handle to a scheduled occurrence, returned by
// Engine.Schedule so callers can cancel or move the event before it
// fires. It is a small value type; the zero Event is a valid no-op
// handle.
//
// Handles stay safe across event reuse: the engine recycles fired
// events through a free list, and each reuse (and each reschedule)
// bumps a generation counter, so a Cancel through a stale handle
// (after the event fired, was discarded or was moved) is a no-op
// rather than a cancellation of whatever the slot now holds.
type Event struct {
	ev   *event
	gen  uint64
	time float64
}

// Cancel prevents the event's action from running when its time
// arrives. Cancelling an already-fired, already-cancelled or zero
// event is a no-op.
func (e Event) Cancel() {
	if e.ev != nil && e.ev.gen == e.gen {
		e.ev.cancelled = true
	}
}

// Time returns the simulated time at which the event fires (fired).
func (e Event) Time() float64 { return e.time }

// event is the pooled scheduler entry behind an Event handle.
type event struct {
	time      float64
	seq       uint64
	gen       uint64
	action    func()
	cancelled bool
	index     int32  // position in the heap; lives in cancelled's padding, so the struct stays 48 bytes
	next      *event // free-list link, or calendar bucket chain; nil while heap-queued
}

// Engine is a sequential discrete-event scheduler. Events fire in
// non-decreasing time order; ties break in scheduling order, which
// keeps runs fully deterministic for a fixed seed. The zero value is
// not usable; create engines with NewEngine.
type Engine struct {
	now    float64
	queue  []*event // concrete binary heap ordered by (time, seq)
	cal    *calendarQueue
	free   *event // recycled events
	nextSq uint64
	fired  uint64

	// Plain instrumentation counters (the engine is single-goroutine);
	// flushMetrics publishes deltas to the process-wide atomics.
	reuses, allocs                             uint64
	heapMax                                    int
	flushedFired, flushedReuses, flushedAllocs uint64
}

// NewEngine returns an engine with the clock at 0, backed by the
// binary-heap scheduler: the (time, seq) ordering oracle the tests
// hold NewEngineCalendar to, and the heap side of the scheduler probes.
func NewEngine() *Engine {
	return &Engine{}
}

// NewEngineCalendar returns an engine backed by a calendar-queue
// scheduler instead of the binary heap — the engine every simulator
// run builds on. Event ordering, and therefore any seeded run's
// trajectory, is identical to NewEngine; the calendar trades the
// heap's O(log n) sift for O(1) bucket operations.
func NewEngineCalendar() *Engine {
	return &Engine{cal: newCalendarQueue()}
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far, a cheap progress
// and liveness metric for long runs.
func (e *Engine) Fired() uint64 { return e.fired }

// pending returns the number of events currently scheduled (including
// cancelled events not yet discarded; an event moved by reschedule
// leaves nothing behind).
func (e *Engine) pending() int {
	if e.cal != nil {
		return e.cal.size
	}
	return len(e.queue)
}

// peekTime returns the fire time of the earliest pending event, or
// +Inf when the queue is empty. The shard coordinator uses it to skip
// idle synchronisation windows.
func (e *Engine) peekTime() float64 {
	if e.cal != nil {
		if ev := e.cal.peek(); ev != nil {
			return ev.time
		}
		return math.Inf(1)
	}
	if len(e.queue) > 0 {
		return e.queue[0].time
	}
	return math.Inf(1)
}

// heapHighWater returns the maximum number of simultaneously pending
// events observed over the engine's lifetime. Per-shard engines each
// track their own high water; aggregation across shards goes through
// obs max-gauge semantics rather than summing, since the marks are
// concurrent-depth measurements.
func (e *Engine) heapHighWater() int { return e.heapMax }

// Schedule runs action after delay units of simulated time. It panics
// on negative or NaN delays — those are always modelling bugs, never
// recoverable conditions.
func (e *Engine) Schedule(delay float64, action func()) Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: invalid delay %v", delay))
	}
	return e.enqueue(e.now+delay, action)
}

// scheduleAt runs action at absolute simulated time t. It panics when
// t is in the past or NaN. The shard coordinator uses it to deliver
// cross-shard messages at their precomputed fire times.
func (e *Engine) scheduleAt(t float64, action func()) Event {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: invalid fire time %v (now %v)", t, e.now))
	}
	return e.enqueue(t, action)
}

func (e *Engine) enqueue(t float64, action func()) Event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
		e.reuses++
	} else {
		ev = &event{}
		e.allocs++
	}
	ev.time = t
	ev.seq = e.nextSq
	ev.action = action
	ev.cancelled = false
	e.nextSq++
	if e.cal != nil {
		e.cal.push(ev)
		if e.cal.size > e.heapMax {
			e.heapMax = e.cal.size
		}
	} else {
		e.push(ev)
	}
	return Event{ev: ev, gen: ev.gen, time: ev.time}
}

// reschedule moves the still-pending event behind h to now+delay with
// a new action, in place, and returns its new handle; h and every copy
// of it go stale. It is order-equivalent to h.Cancel() followed by
// Schedule(delay, action) — it consumes the one sequence number that
// Schedule call would — but leaves no dead event behind to be popped
// and discarded, and costs one heap sift (or one short bucket unlink)
// instead of a push now and a pop later. Through a zero, fired or
// otherwise stale handle it is exactly Schedule. It panics on negative
// or NaN delays like Schedule.
func (e *Engine) reschedule(h Event, delay float64, action func()) Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: invalid delay %v", delay))
	}
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return e.enqueue(e.now+delay, action)
	}
	if e.cal != nil {
		e.cal.remove(ev)
	}
	ev.time = e.now + delay
	ev.seq = e.nextSq
	ev.action = action
	ev.cancelled = false
	ev.gen++
	e.nextSq++
	if e.cal != nil {
		e.cal.push(ev)
	} else if i := int(ev.index); i > 0 && eventBefore(ev, e.queue[(i-1)/2]) {
		e.up(ev, i)
	} else {
		e.down(ev, i)
	}
	return Event{ev: ev, gen: ev.gen, time: ev.time}
}

// release returns a popped event to the free list, invalidating any
// outstanding handles to it.
func (e *Engine) release(ev *event) {
	ev.action = nil
	ev.cancelled = false
	ev.gen++
	ev.next = e.free
	e.free = ev
}

// popBefore removes and returns the earliest pending event if it fires
// at or before until; otherwise the queue is left untouched and nil is
// returned. It is the one place the two scheduler backends differ on
// the dequeue side.
func (e *Engine) popBefore(until float64) *event {
	if e.cal != nil {
		return e.cal.popBefore(until)
	}
	if len(e.queue) == 0 || e.queue[0].time > until {
		return nil
	}
	return e.pop()
}

// fire is the engine's one event loop: pop, discard if cancelled, fire,
// until the next event lies past until, the queue drains or limit
// events have fired (0 means no limit).
func (e *Engine) fire(until float64, limit uint64) uint64 {
	var fired uint64
	for {
		next := e.popBefore(until)
		if next == nil {
			break
		}
		if next.cancelled {
			e.release(next)
			continue
		}
		e.now = next.time
		action := next.action
		e.release(next) // before the action, so it can reuse the slot
		action()
		e.fired++
		fired++
		if limit > 0 && fired >= limit {
			break
		}
	}
	return fired
}

// Run executes events until the clock would pass until, the event
// queue drains, or limit events have fired (limit <= 0 means no
// limit). It returns the number of events fired by this call. When
// nothing is left to fire at or before until, the clock moves to until.
func (e *Engine) Run(until float64, limit uint64) uint64 {
	fired := e.fire(until, limit)
	// pending is asked first because peekTime's +Inf for an empty queue
	// does not exceed an infinite until.
	if e.now < until && (e.pending() == 0 || e.peekTime() > until) {
		e.now = until
	}
	e.flushMetrics()
	return fired
}

// Step executes the single next event, if any, and reports whether one
// fired.
func (e *Engine) Step() bool {
	return e.fire(math.Inf(1), 1) == 1
}

// eventBefore is the heap order: earlier time first, scheduling order
// breaking ties.
func eventBefore(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push inserts ev into the heap.
func (e *Engine) push(ev *event) {
	e.queue = append(e.queue, ev)
	if len(e.queue) > e.heapMax {
		e.heapMax = len(e.queue)
	}
	e.up(ev, len(e.queue)-1)
}

// pop removes and returns the earliest event.
func (e *Engine) pop() *event {
	q := e.queue
	top := q[0]
	last := len(q) - 1
	ev := q[last]
	q[last] = nil
	e.queue = q[:last]
	if last > 0 {
		e.down(ev, 0)
	}
	return top
}

// up stores ev, notionally at heap position i, after sifting it
// towards the root. Every move records the moved event's position so
// reschedule can find it again.
func (e *Engine) up(ev *event, i int) {
	q := e.queue
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = int32(i)
		i = parent
	}
	q[i] = ev
	ev.index = int32(i)
}

// down is up's counterpart towards the leaves.
func (e *Engine) down(ev *event, i int) {
	q := e.queue
	n := len(q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventBefore(q[r], q[child]) {
			child = r
		}
		if !eventBefore(q[child], ev) {
			break
		}
		q[i] = q[child]
		q[i].index = int32(i)
		i = child
	}
	q[i] = ev
	ev.index = int32(i)
}
