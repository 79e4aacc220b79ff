package sim

import (
	"slices"
	"testing"
)

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

// One completion callback serves every job, told apart by the argument
// it was submitted with. Retirements swap the last job into a retired
// job's slot, so an argument must move with its job: here the first
// event retires job 0 and then job 4, which the swap has just moved
// into slot 0, and the second retires the other three.
func TestStationArgsFollowTheirJobsThroughSwaps(t *testing.T) {
	for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
		e := mk()
		s := NewStation(e, "app", 1)
		var got []int32
		var at []float64
		done := func(arg int32) {
			got = append(got, arg)
			at = append(at, e.Now())
		}
		for id, demand := range []float64{1, 10, 10, 10, 1} {
			s.Submit(demand, done, int32(100+id))
		}
		e.Run(100, 0)
		if want := []int32{100, 104, 101, 102, 103}; !slices.Equal(got, want) {
			t.Fatalf("callbacks got arguments %v, want %v", got, want)
		}
		if want := []float64{5, 5, 32, 32, 32}; !slices.Equal(at, want) {
			t.Fatalf("completion times %v, want %v", at, want)
		}
	}
}

// A Semaphore grants synchronously: at once inside Acquire when a slot
// is free, and inside Release — that is, inside whichever callback
// releases — when a waiter queues. Each grant callback gets its own
// argument, and a callback that releases keeps its own after the
// nested grant has run, inside a grant as inside a station callback.
func TestSemaphoreArgsSurviveNestedGrants(t *testing.T) {
	e := NewEngineCalendar()
	sem := NewSemaphore(e, "threads", 1)
	cpu := NewStation(e, "cpu", 1)
	var log []int32 // a callback's argument; negated once its nested grant has returned
	var grant, served func(int32)
	grant = func(arg int32) {
		log = append(log, arg)
		if arg == 2 {
			sem.Release() // hands the slot on at once: 3's grant runs in here
			log = append(log, -arg)
			return
		}
		cpu.Submit(1, served, arg)
	}
	served = func(arg int32) {
		sem.Release() // a queued waiter's grant runs in here
		log = append(log, -arg)
	}
	sem.Acquire(0, grant, 1)
	if want := []int32{1}; !slices.Equal(log, want) {
		t.Fatalf("after a free slot's Acquire the log is %v, want %v", log, want)
	}
	sem.Acquire(1, grant, 2)
	sem.Acquire(0, grant, 3)
	sem.Acquire(1, grant, 4)
	e.Run(10, 0)
	// At t=1, 1's release grants source 1's 2, whose release grants
	// source 0's 3; 3's release at t=2 grants 4, done at t=3.
	if want := []int32{1, 2, 3, -2, -1, 4, -3, -4}; !slices.Equal(log, want) {
		t.Fatalf("grant log %v, want %v", log, want)
	}
	if sem.Held() != 0 || sem.Queued() != 0 {
		t.Fatalf("%d held, %d queued after draining", sem.Held(), sem.Queued())
	}
}

// A cross-shard message carries its argument to the event that
// delivers it: one receiving action serves every message.
func TestSendDeliversItsArg(t *testing.T) {
	c := NewCoordinator(2, 1)
	defer c.Close()
	src, dst := c.Shard(0), c.Shard(1)
	var got []int32
	receive := func() { got = append(got, dst.Eng.Arg()) }
	src.Eng.Schedule(0.5, func() {
		src.Send(1, 0, 2, 1, receive, -7)
		src.Send(1, 0, 1, 1, receive, 6) // same time, earlier seq: delivered first
		src.Send(1, 0, 3, 2.5, receive, 1<<30)
	})
	c.Run(10)
	if want := []int32{6, -7, 1 << 30}; !slices.Equal(got, want) {
		t.Fatalf("delivered arguments %v, want %v", got, want)
	}
}
