package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// Property: reschedule is order-equivalent to scheduling a fresh event
// and letting the superseded one fire as a no-op — a version check in
// its action — with the same real firings at the same times and the
// same number of sequence numbers consumed, on both backends. Slots are
// moved while pending, after they fired (an action moving itself, its
// event dropped first thing) and before they were ever scheduled.
func TestRescheduleMatchesSupersededSchedule(t *testing.T) {
	type firing struct {
		slot int
		at   uint64
	}
	run := func(e *Engine, inPlace bool, seed int64, n int) ([]firing, uint64) {
		rng := NewStream(seed)
		const slots = 12
		var pending [slots]*event // in place: the slot's event while it is pending
		var version [slots]uint64 // superseded: the slot's live move
		var acts [slots]func()
		var live [slots]bool
		var order []firing
		moveSlot := func(j int) {
			// Mixed horizons, with exact ties between slots.
			d := float64(rng.Intn(8)) / 4
			if rng.Float64() < 0.5 {
				d = rng.Exp(float64(1 + rng.Intn(20)))
			}
			if inPlace {
				pending[j] = e.reschedule(pending[j], d, acts[j])
			} else {
				version[j]++
				v := version[j]
				e.Schedule(d, func() {
					if version[j] == v {
						acts[j]()
					}
				})
			}
			live[j] = true
		}
		for i := range acts {
			acts[i] = func() {
				pending[i] = nil
				order = append(order, firing{i, math.Float64bits(e.Now())})
				live[i] = false
				if len(order) >= n {
					return
				}
				if rng.Float64() < 0.7 {
					moveSlot(i)
				}
				for k := rng.Intn(3); k > 0; k-- {
					moveSlot(rng.Intn(slots))
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
		want, wantSq := run(NewEngine(), false, seed, n)
		for _, c := range []struct {
			mk      func() *Engine
			inPlace bool
		}{{NewEngine, true}, {NewEngineCalendar, true}, {NewEngineCalendar, false}} {
			got, gotSq := run(c.mk(), c.inPlace, seed, n)
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

// A moved event leaves nothing behind: it is the same event, pending
// counts it once, and it fires once, at its new time.
func TestRescheduleMovesInPlace(t *testing.T) {
	for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
		e := mk()
		var firedAt []float64
		act := func() { firedAt = append(firedAt, e.Now()) }
		e.Schedule(1, func() {})
		ev := e.reschedule(nil, 5, act)
		if moved := e.reschedule(ev, 2, act); moved != ev {
			t.Fatal("reschedule of a pending event returned another event")
		}
		if e.pending() != 2 {
			t.Fatalf("pending = %d after a move, want 2", e.pending())
		}
		e.Run(10, 0)
		if len(firedAt) != 1 || firedAt[0] != 2 {
			t.Fatalf("moved event fired at %v, want once at 2", firedAt)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("negative delay did not panic")
				}
			}()
			e.reschedule(nil, -1, act)
		}()
	}
}

// With no handles and no generations, nothing stops a caller from
// keeping an event past its firing. reschedule's guard catches the move
// of an event that is no longer pending in the heap before it can take
// over the heap slot of another: here the fired event's stale index is
// in range and names the one event still pending.
func TestRescheduleFiredEventPanics(t *testing.T) {
	for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
		e := mk()
		nop := func() {}
		fired := e.reschedule(nil, 1, nop)
		e.reschedule(nil, 10, nop)
		e.Run(2, 0)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not pending") {
					t.Fatalf("reschedule of a fired event recovered %v, want the not-pending panic", r)
				}
			}()
			e.reschedule(fired, 1, nop)
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
		var evs [256]*event
		for i := range evs {
			evs[i] = e.reschedule(nil, rng.Exp(7), nop)
		}
		i := 0
		if a := testing.AllocsPerRun(1000, func() {
			evs[i] = e.reschedule(evs[i], rng.Exp(7), nop)
			i = (i + 1) % len(evs)
		}); a != 0 {
			t.Fatalf("reschedule allocated %v times per call", a)
		}
	}
}

// The action's argument and the heap index share one word, and an event
// carries no generation: a fleet shard holds one pooled event per idle
// client, so a wider struct would show up directly in peak memory.
func TestEventStaysFiveWords(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding argument is about 64-bit layouts")
	}
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("sizeof(event) = %d bytes, want 40", got)
	}
}

// Property: a calendar engine's two queues cannot reorder anything.
// Random mixes of Schedule, ScheduleArg and reschedule — with delays on
// a quarter-unit grid so times tie, and reschedules that move a pending
// heap event or push a fresh one — fire in exactly the heap-only
// engine's order, with the same arguments at the same times, and
// consume the same sequence numbers.
func TestTwoQueuesMatchHeapOracle(t *testing.T) {
	type firing struct {
		id  int
		at  uint64
		arg int32
	}
	var moves, fresh int
	run := func(e *Engine, seed int64, n int) ([]firing, uint64) {
		rng := NewStream(seed)
		var movers [4]*event // each pending in the heap, or nil
		var order []firing
		ids := 0
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
			id := ids
			ids++
			switch u := rng.Float64(); {
			case u < 0.3:
				e.Schedule(delay(), action(id))
			case u < 0.45:
				e.ScheduleArg(delay(), action(id), int32(rng.Intn(1000)))
			default:
				j := rng.Intn(len(movers))
				if e.cal != nil {
					if movers[j] == nil {
						fresh++
					} else {
						moves++
					}
				}
				act := action(id)
				movers[j] = e.reschedule(movers[j], delay(), func() {
					movers[j] = nil
					act()
				})
			}
		}
		for i := 0; i < 8; i++ {
			e.Schedule(delay(), action(ids))
			ids++
		}
		for steps := 0; len(order) < n && steps < 50*n; steps++ {
			if e.pending() == 0 {
				e.Schedule(delay(), action(ids))
				ids++
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
	t.Logf("reschedules: %d of pending heap events, %d fresh", moves, fresh)
	if moves == 0 || fresh == 0 {
		t.Fatal("a kind of reschedule never happened; the property is vacuous for it")
	}
}
