package sim

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// Property: reschedule is order-equivalent to Cancel followed by
// Schedule — the same firing sequence at the same times and the same
// number of sequence numbers consumed — on both backends and through
// every kind of handle: pending, cancelled but not yet discarded,
// fired (including an action moving itself through its own, by then
// stale, handle) and zero. Superseded handles are retained and
// cancelled again after every move, extending the generation property
// of cancel_test.go: a stale handle never touches the moved event or
// the slot's next tenant.
func TestRescheduleMatchesCancelSchedule(t *testing.T) {
	type mover func(e *Engine, h Event, delay float64, action func()) Event
	inPlace := func(e *Engine, h Event, delay float64, action func()) Event {
		return e.reschedule(h, delay, action)
	}
	cancelSchedule := func(e *Engine, h Event, delay float64, action func()) Event {
		h.Cancel()
		return e.Schedule(delay, action)
	}
	type firing struct {
		slot int
		at   uint64
	}
	run := func(e *Engine, move mover, seed int64, n int) ([]firing, uint64) {
		rng := NewStream(seed)
		const slots = 12
		var handles [slots]Event // slots start as zero handles
		var acts [slots]func()
		var live [slots]bool
		var stale []Event
		var order []firing
		moveSlot := func(j int) {
			stale = append(stale, handles[j])
			// Mixed horizons, with exact ties between slots.
			d := float64(rng.Intn(8)) / 4
			if rng.Float64() < 0.5 {
				d = rng.Exp(float64(1 + rng.Intn(20)))
			}
			handles[j] = move(e, handles[j], d, acts[j])
			live[j] = true
			for _, h := range stale {
				h.Cancel()
			}
		}
		for i := range acts {
			i := i
			acts[i] = func() {
				order = append(order, firing{i, math.Float64bits(e.Now())})
				live[i] = false
				if len(order) >= n {
					return
				}
				if rng.Float64() < 0.7 {
					moveSlot(i) // through its own handle, stale since it fired
				}
				for k := rng.Intn(3); k > 0; k-- {
					j := rng.Intn(slots)
					if rng.Float64() < 0.25 {
						handles[j].Cancel() // a later move finds it cancelled
						live[j] = false
					} else {
						moveSlot(j)
					}
				}
			}
		}
		for i := 0; i < slots/2; i++ {
			moveSlot(i)
		}
		for steps := 0; len(order) < n && steps < 50*n; steps++ { // bounded, so a lost event fails instead of hanging
			if live == [slots]bool{} {
				moveSlot(0) // the population died out: start it again
			}
			e.Run(e.Now()+2, 0)
		}
		return order, e.nextSq
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw) + 40
		want, wantSq := run(NewEngine(), cancelSchedule, seed, n)
		for _, c := range []struct {
			mk   func() *Engine
			move mover
		}{{NewEngine, inPlace}, {NewEngineCalendar, inPlace}, {NewEngineCalendar, cancelSchedule}} {
			got, gotSq := run(c.mk(), c.move, seed, n)
			if gotSq != wantSq || len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// A moved event leaves nothing behind: pending counts it once, the old
// handle is dead, and the new one cancels it.
func TestRescheduleMovesInPlace(t *testing.T) {
	for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
		e := mk()
		fired := 0
		act := func() { fired++ }
		e.Schedule(1, func() {})
		h0 := e.Schedule(5, act)
		h1 := e.reschedule(h0, 2, act)
		if e.pending() != 2 {
			t.Fatalf("pending = %d after a move, want 2", e.pending())
		}
		if h1.Time() != 2 {
			t.Fatalf("moved handle Time = %v, want 2", h1.Time())
		}
		h0.Cancel() // stale: must not touch the moved event
		e.Run(3, 0)
		if fired != 1 {
			t.Fatalf("moved event fired %d times by t=3, want 1", fired)
		}
		h2 := e.reschedule(h1, 1, act) // h1 fired: plain schedule
		h2.Cancel()
		e.Run(10, 0)
		if fired != 1 {
			t.Fatalf("cancelled reschedule fired (fired=%d)", fired)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("negative delay did not panic")
				}
			}()
			e.reschedule(Event{}, -1, act)
		}()
	}
}

// reschedule is the station's per-event primitive; it must not
// allocate on either backend, whether the event moves earlier or later.
func TestRescheduleAllocatesNothing(t *testing.T) {
	for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
		e := mk()
		rng := NewStream(5)
		nop := func() {}
		var hs [256]Event
		for i := range hs {
			hs[i] = e.Schedule(rng.Exp(7), nop)
		}
		i := 0
		if a := testing.AllocsPerRun(1000, func() {
			hs[i] = e.reschedule(hs[i], rng.Exp(7), nop)
			i = (i + 1) % len(hs)
		}); a != 0 {
			t.Fatalf("reschedule allocated %v times per call", a)
		}
	}
}

// The action's argument and the heap index share one word, and the
// cancelled flag is a generation bit: a fleet shard holds one pooled
// event per idle client, so a wider struct would show up directly in
// peak memory.
func TestEventStaysSixWords(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding argument is about 64-bit layouts")
	}
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Fatalf("sizeof(event) = %d bytes, want 48", got)
	}
}

// Property: a calendar engine's two queues cannot reorder anything.
// Random mixes of Schedule, ScheduleArg, reschedule and Cancel — with
// delays on a quarter-unit grid so times tie, and reschedules through
// handles that sit in the calendar (moved into the heap), in the heap,
// or are stale — fire in exactly the heap-only engine's order, with the
// same arguments at the same times, and consume the same sequence
// numbers.
func TestTwoQueuesMatchHeapOracle(t *testing.T) {
	type firing struct {
		id  int
		at  uint64
		arg int32
	}
	var calMoves, heapMoves, staleMoves int
	run := func(e *Engine, seed int64, n int) ([]firing, uint64) {
		rng := NewStream(seed)
		var handles []Event // every handle issued, live or stale
		var order []firing
		delay := func() float64 {
			if rng.Float64() < 0.6 {
				return float64(rng.Intn(8)) / 4
			}
			return rng.Exp(1)
		}
		var op func()
		action := func(id int) func() {
			return func() {
				order = append(order, firing{id, math.Float64bits(e.Now()), e.Arg()})
				if len(order) < n {
					for k := 1 + rng.Intn(2); k > 0; k-- {
						op()
					}
				}
			}
		}
		op = func() {
			id := len(handles)
			switch u := rng.Float64(); {
			case u < 0.3:
				handles = append(handles, e.Schedule(delay(), action(id)))
			case u < 0.45:
				handles = append(handles, e.ScheduleArg(delay(), action(id), int32(rng.Intn(1000))))
			case u < 0.85:
				h := handles[rng.Intn(len(handles))]
				if e.cal != nil {
					switch {
					case h.ev.gen&^cancelledBit != h.gen:
						staleMoves++
					case h.ev.index == inCalendar:
						calMoves++
					default:
						heapMoves++
					}
				}
				handles = append(handles, e.reschedule(h, delay(), action(id)))
			default:
				handles[rng.Intn(len(handles))].Cancel()
			}
		}
		for i := 0; i < 8; i++ {
			handles = append(handles, e.Schedule(delay(), action(len(handles))))
		}
		for steps := 0; len(order) < n && steps < 50*n; steps++ {
			if e.pending() == 0 {
				handles = append(handles, e.Schedule(delay(), action(len(handles))))
			}
			e.Run(e.Now()+0.75, 0) // run boundaries land on the grid too
		}
		return order, e.nextSq
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw) + 60
		want, wantSq := run(NewEngine(), seed, n)
		got, gotSq := run(NewEngineCalendar(), seed, n)
		if gotSq != wantSq || len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	t.Logf("reschedules: %d of calendar events, %d of heap events, %d of stale handles", calMoves, heapMoves, staleMoves)
	if calMoves == 0 || heapMoves == 0 || staleMoves == 0 {
		t.Fatal("a kind of reschedule never happened; the property is vacuous for it")
	}
}
