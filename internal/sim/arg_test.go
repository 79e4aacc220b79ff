package sim

import "testing"

// Every action sees its own event's argument, also when it schedules
// another event with a different one first, and a plain Schedule fires
// with 0 even right after an event that carried an argument.
func TestArgReachesItsAction(t *testing.T) {
	for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
		e := mk()
		var got []int32
		var record func()
		record = func() {
			a := e.Arg()
			if a == 7 {
				e.ScheduleArg(1, record, 8)
			}
			got = append(got, a, e.Arg())
		}
		e.ScheduleArg(2, record, 7)
		e.ScheduleArg(1, record, -3)
		e.Schedule(2.5, record)
		e.Run(10, 0)
		want := []int32{-3, -3, 7, 7, 0, 0, 8, 8}
		if len(got) != len(want) {
			t.Fatalf("fired %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fired %v, want %v", got, want)
			}
		}
	}
}

// Fresh events come from slabs: the first slabEvents enqueues on a new
// engine make one allocation between them, and the next one another.
// Reserving more than a slab holds makes the reserved enqueues one
// allocation; reserving less changes nothing. The heap backend's queue
// is sized up front so only events count.
func TestFirstSlabIsOneAllocation(t *testing.T) {
	nop := func() {}
	enqueues := func(reserve, n int) float64 {
		engines := make([]*Engine, 2) // AllocsPerRun calls f once more than runs
		for i := range engines {
			engines[i] = &Engine{queue: make([]*event, 0, 3*slabEvents+1)}
		}
		return testing.AllocsPerRun(1, func() {
			e := engines[0]
			engines = engines[1:]
			e.Reserve(reserve)
			for i := 0; i < n; i++ {
				e.Schedule(float64(i), nop)
			}
		})
	}
	for _, c := range []struct {
		reserve, n int
		want       float64
	}{
		{0, slabEvents, 1},
		{0, slabEvents + 1, 2},
		{slabEvents / 2, slabEvents, 1},
		{3 * slabEvents, 3 * slabEvents, 1},
		{3 * slabEvents, 3*slabEvents + 1, 2},
	} {
		if a := enqueues(c.reserve, c.n); a != c.want {
			t.Errorf("%d enqueues after Reserve(%d) on a fresh engine made %v allocations, want %v", c.n, c.reserve, a, c.want)
		}
	}
}
