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
// The event core is allocation-free in steady state: fired events
// return to a per-engine free list and are reused by later Schedule
// calls, fresh events are carved from slabs rather than allocated one
// by one, and the priority queues (a calendar queue and a binary heap)
// are concrete-typed rather than container/heap, so no interface
// boxing or dynamic dispatch happens per event. One Engine is strictly
// single-goroutine; concurrency lives a level up, where independent
// engines run in parallel (internal/parallel).
//
// Every continuation is a handler plus an int32 argument: an event's
// action reads its argument through Engine.Arg (ScheduleArg, and the
// event a Shard.Send delivers), a Station's or Semaphore's callback
// receives it as its parameter. A model binds one handler per kind of
// continuation, once, and names each occurrence by the argument — a
// client's index, a request record's handle — so scheduling makes no
// closure. Semaphore grants run synchronously, inside Acquire or inside
// whichever callback calls Release, so continuations nest: a handler
// takes its argument on entry and never reads Engine.Arg after a
// nested grant.
package sim

import (
	"fmt"
	"math"

	"perfpred/internal/obs"
)

// event is a pooled scheduler entry. Events are fire-and-forget:
// Schedule hands out no handle, so nothing outside the engine can
// cancel one or hold one past its firing. The one event that does
// move, a Station's completion, is owned by its station through
// reschedule.
type event struct {
	time   float64
	seq    uint64
	action func()
	arg    int32  // the action's argument, read back through Engine.Arg
	index  int32  // position in the heap, kept by every sift; arg and index share one word, so the struct is 40 bytes
	next   *event // free-list link, or calendar bucket chain; nil while heap-queued
}

// slabEvents is how many fresh events one allocation carves out when
// the free list is empty. A fleet build schedules one think timer per
// client, so a malloc per event would dominate its cost.
const slabEvents = 128

// Engine is a sequential discrete-event scheduler. Events fire in
// non-decreasing time order; ties break in scheduling order, which
// keeps runs fully deterministic for a fixed seed. The zero value is
// not usable; create engines with NewEngine.
type Engine struct {
	now float64
	// queue is a concrete binary heap ordered by (time, seq). On a
	// heap-only engine it holds every event; on a calendar engine it
	// holds the events that move (reschedule), and cal the rest.
	queue  []*event
	cal    *calendarQueue
	free   *event  // recycled events
	slab   []event // fresh events not yet handed out
	nextSq uint64
	fired  uint64
	arg    int32 // the firing event's argument

	// reserved is how many events the next slab must hold when Reserve
	// asked for more than slabEvents.
	reserved int

	// Plain instrumentation counters (the engine is single-goroutine);
	// flushMetrics publishes deltas to the declared metrics.
	reuses, allocs                             uint64
	heapMax                                    int
	flushedFired, flushedReuses, flushedAllocs uint64
	calPops, heapPops                          uint64 // pops by queue
	flushedQueues                              QueueCounts
}

// NewEngine returns an engine with the clock at 0, backed by the
// binary heap alone: the (time, seq) ordering oracle the tests hold
// NewEngineCalendar to, and the heap side of the scheduler probes.
func NewEngine() *Engine {
	return &Engine{}
}

// NewEngineCalendar returns the engine every simulator run builds on:
// two queues in one (time, seq) order. Events scheduled once (think
// timers, latencies, arrivals, cross-shard deliveries) sit in a
// calendar queue, whose O(1) bucket operations suit the hundreds of
// thousands a fleet shard keeps pending. Events that move
// (reschedule: a Station's completion, moved on every Submit and every
// completion) sit in the binary heap, one per station, so they neither
// crowd the calendar's head buckets nor make each calendar dequeue
// rescan them. Each pop takes the lesser of the two heads, so the
// firing order, and therefore any seeded run's trajectory, is
// identical to NewEngine's.
func NewEngineCalendar() *Engine {
	return &Engine{cal: &calendarQueue{}}
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far, a cheap progress
// and liveness metric for long runs.
func (e *Engine) Fired() uint64 { return e.fired }

// pending returns the number of events currently scheduled (an event
// moved by reschedule counts once).
func (e *Engine) pending() int {
	if e.cal != nil {
		return e.cal.size + len(e.queue)
	}
	return len(e.queue)
}

// peekTime returns the fire time of the earliest pending event, or
// +Inf when the queue is empty. The shard coordinator uses it to skip
// idle synchronisation windows.
func (e *Engine) peekTime() float64 {
	t := math.Inf(1)
	if len(e.queue) > 0 {
		t = e.queue[0].time
	}
	if e.cal != nil {
		if ev := e.cal.peek(); ev != nil && ev.time < t {
			t = ev.time
		}
	}
	return t
}

// noteDepth raises the high-water mark to the current pending count.
func (e *Engine) noteDepth() {
	if n := e.pending(); n > e.heapMax {
		e.heapMax = n
	}
}

// QueueCounts is how an engine's dequeues divided between its two
// queues, and how many calendar events the dequeue search looked at:
// Scanned per CalendarPops is the length of the bucket chains a
// dequeue walks. A heap-only engine pops only from the heap.
type QueueCounts struct {
	CalendarPops, HeapPops, Scanned uint64
}

// QueueCounts reports the engine's dequeue counts so far.
func (e *Engine) QueueCounts() QueueCounts {
	qc := QueueCounts{CalendarPops: e.calPops, HeapPops: e.heapPops}
	if e.cal != nil {
		qc.Scanned = e.cal.scanned
	}
	return qc
}

// Arg returns the argument of the event whose action is running: the
// arg given to ScheduleArg, 0 for Schedule. One action bound once can
// so serve many occurrences, told apart by their arguments.
func (e *Engine) Arg() int32 { return e.arg }

// Schedule runs action after delay units of simulated time. It panics
// on negative or NaN delays — those are always modelling bugs, never
// recoverable conditions.
func (e *Engine) Schedule(delay float64, action func()) {
	e.ScheduleArg(delay, action, 0)
}

// ScheduleArg is Schedule with an argument that Arg returns while
// action runs.
func (e *Engine) ScheduleArg(delay float64, action func(), arg int32) {
	checkDelay(delay)
	e.enqueue(e.now+delay, action, arg)
}

// checkDelay panics on a negative or NaN delay.
func checkDelay(delay float64) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: invalid delay %v", delay))
	}
}

// scheduleAt runs action with argument arg at absolute simulated time
// t. It panics when t is in the past or NaN. The shard coordinator
// uses it to deliver cross-shard messages at their precomputed fire
// times.
func (e *Engine) scheduleAt(t float64, action func(), arg int32) {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: invalid fire time %v (now %v)", t, e.now))
	}
	e.enqueue(t, action, arg)
}

// enqueue schedules a new event at time t: into the calendar on a
// calendar engine, into the heap otherwise.
func (e *Engine) enqueue(t float64, action func(), arg int32) {
	ev := e.alloc(t, action, arg)
	if e.cal != nil {
		e.cal.push(ev)
	} else {
		e.push(ev)
	}
	e.noteDepth()
}

// Reserve tells the engine that n more events are about to be
// scheduled, so the fresh events beyond what is left of the current
// slab come from one slab of that size rather than from slabEvents
// slabs, the last of them partly unused. A fleet pool with an engine of
// its own schedules one think timer per closed client at build, and
// its free list serves the requests after that (the benchmark's
// 625-pool fleet takes no fresh event once built), so reserving its
// clients leaves no partly used slab per pool. Only where events live
// changes, never their order.
func (e *Engine) Reserve(n int) {
	e.reserved = n - len(e.slab)
}

// alloc takes an event from the free list, or from a slab when the
// list is empty, and stamps it with t, action, arg and the next
// sequence number.
func (e *Engine) alloc(t float64, action func(), arg int32) *event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
		e.reuses++
	} else {
		if len(e.slab) == 0 {
			e.slab = make([]event, max(slabEvents, e.reserved))
			e.reserved = 0
		}
		ev = &e.slab[0]
		e.slab = e.slab[1:]
		e.allocs++
	}
	ev.time = t
	ev.seq = e.nextSq
	ev.action = action
	ev.arg = arg
	e.nextSq++
	return ev
}

// reschedule moves ev, an event pending in the heap, to now+delay with
// a new action, in place, and returns it; for a nil ev it pushes a
// fresh heap event instead. Either way it consumes one sequence number,
// as Schedule does, so moving an event fires in the order that
// scheduling a new one and ignoring the old would. The caller owns ev
// until it fires and must drop it then (Station nils its completion
// first thing in onCompletion): an ev that is not pending in the heap —
// fired, or never a heap event — panics, as do negative or NaN delays.
func (e *Engine) reschedule(ev *event, delay float64, action func()) *event {
	checkDelay(delay)
	if ev == nil {
		ev = e.alloc(e.now+delay, action, 0)
		e.push(ev)
		e.noteDepth()
		return ev
	}
	i := int(ev.index)
	if i < 0 || i >= len(e.queue) || e.queue[i] != ev {
		panic("sim: reschedule of an event not pending in the heap")
	}
	ev.time = e.now + delay
	ev.seq = e.nextSq
	ev.action = action
	e.nextSq++
	if i > 0 && eventBefore(ev, e.queue[(i-1)/2]) {
		e.up(ev, i)
	} else {
		e.down(ev, i)
	}
	return ev
}

// release returns a popped event to the free list.
func (e *Engine) release(ev *event) {
	ev.action = nil
	ev.next = e.free
	e.free = ev
}

// popBefore removes and returns the earliest pending event if it fires
// at or before until; otherwise the queues are left untouched and nil
// is returned. A calendar engine takes the (time, seq)-lesser of its
// two heads.
func (e *Engine) popBefore(until float64) *event {
	if e.cal != nil {
		if c := e.cal.peek(); c != nil && (len(e.queue) == 0 || eventBefore(c, e.queue[0])) {
			if c.time > until {
				return nil
			}
			e.calPops++
			return e.cal.popMin()
		}
	}
	if len(e.queue) == 0 || e.queue[0].time > until {
		return nil
	}
	e.heapPops++
	return e.pop()
}

// fire is the engine's one event loop: pop and fire until the next
// event lies past until, the queue drains or limit events have fired
// (0 means no limit).
func (e *Engine) fire(until float64, limit uint64) uint64 {
	var fired uint64
	for {
		next := e.popBefore(until)
		if next == nil {
			break
		}
		e.now = next.time
		e.arg = next.arg
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

// The event core's process-wide counters, summed over every Engine.
// Engines keep plain per-instance counters (each is strictly
// single-goroutine) and flushMetrics publishes their deltas at the end
// of each Run call, so the per-event hot path never touches shared
// cache lines and stays allocation-free.
var (
	simEventsFired     = obs.DeclareCounter("sim_events_fired")           // events executed
	simEventReuses     = obs.DeclareCounter("sim_event_reuses")           // Schedule calls served from the free list
	simEventAllocs     = obs.DeclareCounter("sim_event_allocs")           // Schedule calls that took a fresh event from a slab
	simHeapHighWater   = obs.DeclareMaxGauge("sim_heap_depth_high_water") // event-heap depth of the deepest single engine
	simCalendarPops    = obs.DeclareCounter("sim_calendar_pops")          // events popped from a calendar queue
	simCalendarScanned = obs.DeclareCounter("sim_calendar_scanned")       // calendar events a dequeue search looked at
)

// flushMetrics publishes the deltas accumulated since the last flush:
// a handful of atomic adds, no allocation, nothing while unbound.
func (e *Engine) flushMetrics() {
	if !simEventsFired.Bound() {
		return
	}
	simEventsFired.Add(e.fired - e.flushedFired)
	e.flushedFired = e.fired
	simEventReuses.Add(e.reuses - e.flushedReuses)
	e.flushedReuses = e.reuses
	simEventAllocs.Add(e.allocs - e.flushedAllocs)
	e.flushedAllocs = e.allocs
	qc := e.QueueCounts()
	simCalendarPops.Add(qc.CalendarPops - e.flushedQueues.CalendarPops)
	simCalendarScanned.Add(qc.Scanned - e.flushedQueues.Scanned)
	e.flushedQueues = qc
	simHeapHighWater.Observe(int64(e.heapMax))
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
