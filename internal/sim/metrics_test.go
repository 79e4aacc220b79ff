package sim

import (
	"testing"

	"perfpred/internal/obs"
)

// Regression (sharded metrics): each engine flushes its own pending-
// event high-water mark, so with several per-shard engines alive the
// published gauge must be the MAX across engines — later flushes from
// shallower engines must not clobber a deeper engine's mark, in any
// flush order.
func TestHeapHighWaterAggregatesAcrossEngines(t *testing.T) {
	r := obs.NewRegistry()
	obs.Bind(r)
	defer obs.Bind(nil)

	depths := []int{3, 17, 5} // deepest in the middle: both flush orders around it
	engines := make([]*Engine, len(depths))
	for i, d := range depths {
		e := NewEngine()
		engines[i] = e
		for j := 0; j < d; j++ {
			e.Schedule(float64(j+1), func() {})
		}
	}
	// Flush shallow-deep-shallow, then re-flush every engine in reverse:
	// the mark must survive every ordering.
	for _, e := range engines {
		e.Run(100, 0)
	}
	for i := len(engines) - 1; i >= 0; i-- {
		engines[i].Run(200, 0)
	}
	got := r.Snapshot().MaxGauges["sim_heap_depth_high_water"]
	if got != 17 {
		t.Fatalf("aggregated high water = %d, want 17 (max across engines)", got)
	}
	for i, e := range engines {
		if e.heapMax != depths[i] {
			t.Fatalf("engine %d high water = %d, want %d", i, e.heapMax, depths[i])
		}
	}
}

// A coordinator's published high water is the max over its shards, not
// the sum: the marks are concurrent queue depths of separate engines.
func TestCoordinatorHeapHighWater(t *testing.T) {
	r := obs.NewRegistry()
	obs.Bind(r)
	defer obs.Bind(nil)

	c := NewCoordinator(3, 1)
	defer c.Close()
	for i := 0; i < c.Shards(); i++ {
		n := (i + 1) * 4
		eng := c.Shard(i).Eng
		for j := 0; j < n; j++ {
			eng.Schedule(float64(j+1), func() {})
		}
	}
	c.Run(100)
	if got := r.Snapshot().MaxGauges["sim_heap_depth_high_water"]; got != 12 {
		t.Fatalf("coordinator high water = %d, want 12 (max shard, not sum)", got)
	}
}

// The coordinator publishes its pool's counters at the end of Run:
// windows is a property of the event population (the final clamp and
// skipped idle stretches fan nothing out), parks is the host's
// business and only bounded — at most one per goroutine per window,
// plus the workers' sleep before the first.
func TestCoordinatorWindowMetrics(t *testing.T) {
	r := obs.NewRegistry()
	obs.Bind(r)
	defer obs.Bind(nil)

	const shards, windows = 2, 50
	c := NewCoordinator(shards, 1)
	defer c.Close()
	for i := 0; i < shards; i++ {
		eng := c.Shard(i).Eng
		var tick func()
		tick = func() {
			if eng.Now() < windows-1 {
				eng.Schedule(1, tick)
			}
		}
		eng.Schedule(0.5, tick) // one event per shard per window
	}
	c.Run(windows)
	c.Run(windows + 1000) // nothing pending: one inline clamp, no window
	for i := 0; i < shards; i++ {
		if now := c.Shard(i).Eng.Now(); now != windows+1000 {
			t.Fatalf("shard %d clock %v after the clamp, want %v", i, now, windows+1000)
		}
	}
	snap := r.Snapshot()
	if got := snap.Counters["sim_coordinator_windows"]; got != windows {
		t.Fatalf("sim_coordinator_windows = %d, want %d", got, windows)
	}
	parks := snap.Counters["sim_coordinator_parks"]
	if parks > c.Parks() || c.Parks() > shards*(windows+1) {
		t.Fatalf("sim_coordinator_parks = %d, Parks() = %d, want flushed ≤ live ≤ %d", parks, c.Parks(), shards*(windows+1))
	}
}

// A calendar engine publishes its dequeue counts as deltas at the end
// of each Run: after several, the counters equal its own QueueCounts,
// and a flush allocates nothing.
func TestCalendarCountsPublished(t *testing.T) {
	r := obs.NewRegistry()
	obs.Bind(r)
	defer obs.Bind(nil)

	e := NewEngineCalendar()
	rng := NewStream(4)
	for i := 0; i < 2000; i++ {
		e.Schedule(rng.Exp(5), func() {})
	}
	for until := 1.0; until <= 4; until++ {
		e.Run(until, 0)
	}
	qc := e.QueueCounts()
	snap := r.Snapshot()
	pops, scanned := snap.Counters["sim_calendar_pops"], snap.Counters["sim_calendar_scanned"]
	if pops == 0 || pops != qc.CalendarPops || scanned != qc.Scanned {
		t.Fatalf("published %d pops and %d scanned, want the engine's %d and %d", pops, scanned, qc.CalendarPops, qc.Scanned)
	}
	if a := testing.AllocsPerRun(10, e.flushMetrics); a != 0 {
		t.Fatalf("flushMetrics allocated %v times per call", a)
	}
}
