package sim

import (
	"sync/atomic"

	"perfpred/internal/obs"
)

// engineMetrics are process-wide event-core counters, aggregated over
// every Engine. Engines keep plain per-instance counters (they are
// strictly single-goroutine) and flush deltas into these atomics at the
// end of each Run call, so the per-event hot path never touches shared
// cache lines and stays allocation-free.
type engineMetrics struct {
	fired    *obs.Counter  // events executed
	reuses   *obs.Counter  // Schedule calls served from the free list
	allocs   *obs.Counter  // Schedule calls that took a fresh event from a slab
	heapHigh *obs.MaxGauge // event-heap depth high-water mark of the deepest single engine
	windows  *obs.Counter  // coordinator windows fanned out to the pool
	parks    *obs.Counter  // barrier waits that put a goroutine to sleep
	seeded   *obs.Counter  // random streams that drew and so built a generator
	calPops  *obs.Counter  // events popped from a calendar queue
	scanned  *obs.Counter  // calendar events a dequeue search looked at
}

var metrics atomic.Pointer[engineMetrics]

// EnableMetrics registers the event core's counters on r and turns
// instrumentation on for every Engine in the process. A nil r disables
// instrumentation again.
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		metrics.Store(nil)
		return
	}
	metrics.Store(&engineMetrics{
		fired:    r.Counter("sim_events_fired"),
		reuses:   r.Counter("sim_event_reuses"),
		allocs:   r.Counter("sim_event_allocs"),
		heapHigh: r.MaxGauge("sim_heap_depth_high_water"),
		windows:  r.Counter("sim_coordinator_windows"),
		parks:    r.Counter("sim_coordinator_parks"),
		seeded:   r.Counter("sim_streams_seeded"),
		calPops:  r.Counter("sim_calendar_pops"),
		scanned:  r.Counter("sim_calendar_scanned"),
	})
}

// recordSeeded counts one stream's first draw. Once per stream, never
// per draw.
func recordSeeded() {
	if m := metrics.Load(); m != nil {
		m.seeded.Inc()
	}
}

// flushMetrics publishes the deltas accumulated since the last flush.
// Called at the end of Run; a handful of atomic adds, no allocation.
func (e *Engine) flushMetrics() {
	m := metrics.Load()
	if m == nil {
		return
	}
	m.fired.Add(e.fired - e.flushedFired)
	e.flushedFired = e.fired
	m.reuses.Add(e.reuses - e.flushedReuses)
	e.flushedReuses = e.reuses
	m.allocs.Add(e.allocs - e.flushedAllocs)
	e.flushedAllocs = e.allocs
	qc := e.QueueCounts()
	m.calPops.Add(qc.CalendarPops - e.flushedQueues.CalendarPops)
	m.scanned.Add(qc.Scanned - e.flushedQueues.Scanned)
	e.flushedQueues = qc
	m.heapHigh.Observe(int64(e.heapMax))
}

// flushMetrics publishes the worker pool's counters the way engines
// publish theirs: deltas since the last flush, at the end of Run.
func (c *Coordinator) flushMetrics() {
	m := metrics.Load()
	if m == nil {
		return
	}
	st := c.pool.Stats()
	m.windows.Add(st.Runs - c.flushed.Runs)
	m.parks.Add(st.Parks - c.flushed.Parks)
	c.flushed = st
}
