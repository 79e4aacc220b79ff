package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: a calendar-queue engine fires exactly the same event
// sequence as the heap engine for any schedule/reschedule workload —
// including time ties (broken by scheduling order), in-place moves of
// fresh and long-resident heap events, and enough churn to force
// calendar resizes in both directions.
func TestCalendarMatchesHeapProperty(t *testing.T) {
	run := func(e *Engine, seed int64, n int) []int {
		rng := NewStream(seed)
		var order []int
		id := 0
		var held *event // pending in the heap, or nil once it fired
		var churn func()
		churn = func() {
			// From inside an action, schedule a few follow-ups at mixed
			// horizons, sometimes moving one at once and sometimes
			// duplicating a timestamp.
			k := rng.Intn(3)
			for j := 0; j < k; j++ {
				myID := id
				id++
				d := rng.Exp(float64(1 + rng.Intn(50)))
				act := func() {
					order = append(order, myID)
					if len(order) < n {
						churn()
					}
				}
				switch x := rng.Float64(); {
				case x < 0.4:
					ev := e.reschedule(nil, d, act)
					e.reschedule(ev, rng.Exp(float64(1+rng.Intn(50))), act)
				case x < 0.5:
					// Move the event held last — resident for a while,
					// unless it fired meanwhile — and hold it again.
					e.Schedule(d, act)
					held = e.reschedule(held, rng.Exp(5), func() {
						held = nil
						act()
					})
				default:
					e.Schedule(d, act)
				}
				if rng.Float64() < 0.3 {
					dupID := id
					id++
					e.Schedule(d, func() { order = append(order, dupID) })
				}
			}
		}
		for i := 0; i < 10; i++ {
			seedID := id
			id++
			e.Schedule(rng.Exp(2), func() {
				order = append(order, seedID)
				churn()
			})
		}
		// Advance in small increments so the until-boundary and clock
		// clamping paths are exercised too.
		for e.pending() > 0 && len(order) < n+50 {
			e.Run(e.Now()+3, 0)
		}
		return order
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 20
		a := run(NewEngine(), seed, n)
		b := run(NewEngineCalendar(), seed, n)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The calendar must stay correct through heavy growth and shrinkage:
// fill far past the resize threshold, drain to nearly empty, and check
// strict (time, seq) order throughout.
func TestCalendarResizeKeepsOrder(t *testing.T) {
	e := NewEngineCalendar()
	rng := NewStream(7)
	fired := 0
	lastTime := -1.0
	record := func() {
		if e.Now() < lastTime {
			t.Fatalf("time went backwards: %v after %v", e.Now(), lastTime)
		}
		lastTime = e.Now()
		fired++
	}
	const n = 5000
	for i := 0; i < n; i++ {
		e.Schedule(rng.Exp(100), record)
	}
	// Drain half, grow again with a clustered burst near the clock, then
	// drain fully: exercises shrink, regrow and the sparse fallback.
	e.Run(70, 0)
	for i := 0; i < n/2; i++ {
		e.Schedule(rng.Float64()*0.01, record)
	}
	e.Run(1e9, 0)
	if e.pending() != 0 {
		t.Fatalf("pending %d after full drain", e.pending())
	}
	if fired != n+n/2 {
		t.Fatalf("fired %d, want %d", fired, n+n/2)
	}
}

// The structural gate behind the fleets' speed: under the pending set
// a closed population keeps — exponential think timers, so events thin
// out exponentially away from the head, plus millisecond-scale service
// events landing right at the head — the bucket width must follow the
// dequeue rate, or every pop re-scans a head bucket holding ~ln N times
// too many events (≈ 85 per pop with a width fitted to the spread). A
// count, not a time, so it gates on any machine.
func TestCalendarChainStaysShortUnderSkew(t *testing.T) {
	e := NewEngineCalendar()
	rng := NewStream(7)
	const clients, think = 50000, 7.0
	var request func()
	next := func() { e.Schedule(rng.Exp(think), request) }
	request = func() {
		// A service completion that a second arrival pushes back once.
		ev := e.reschedule(nil, rng.Exp(0.005), next)
		e.reschedule(ev, rng.Exp(0.005), next)
	}
	for i := 0; i < clients; i++ {
		e.Schedule(rng.Exp(think), request)
	}
	e.Run(3*think, 0) // past two turnovers of the population
	perPop := float64(e.cal.scanned) / float64(e.Fired())
	t.Logf("%d pops, %.2f events scanned per pop, %d rate re-fits, width %.3g", e.Fired(), perPop, e.cal.refits, e.cal.width)
	if perPop > 8 {
		t.Errorf("findMin scanned %.1f events per pop, want <= 8", perPop)
	}
	if e.cal.refits == 0 {
		t.Error("the width was never re-fitted to the dequeue rate")
	}
}

// A re-fit at an unchanged bucket count relinks events in place and
// must not allocate: it runs inside the steady-state event loop.
func TestCalendarRefitAllocatesNothing(t *testing.T) {
	e := NewEngineCalendar()
	rng := NewStream(3)
	for i := 0; i < 5000; i++ {
		e.Schedule(rng.Exp(7), func() {})
	}
	cq := e.cal
	w := cq.width
	if a := testing.AllocsPerRun(20, func() {
		w *= 1.5
		all, _ := cq.unlinkAll()
		cq.relink(all, len(cq.buckets), w)
	}); a != 0 {
		t.Fatalf("re-fit allocated %v times per run", a)
	}
	lastTime := -1.0
	for e.Step() {
		if e.Now() < lastTime {
			t.Fatalf("time went backwards after re-fits: %v after %v", e.Now(), lastTime)
		}
		lastTime = e.Now()
	}
	if e.Fired() != 5000 {
		t.Fatalf("fired %d of 5000 after re-fits", e.Fired())
	}
}

// peekTime must agree between backends and report +Inf when drained.
func TestPeekTime(t *testing.T) {
	for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
		e := mk()
		if !math.IsInf(e.peekTime(), 1) {
			t.Fatalf("empty engine peekTime = %v, want +Inf", e.peekTime())
		}
		e.Schedule(5, func() {})
		e.Schedule(2, func() {})
		if got := e.peekTime(); got != 2 {
			t.Fatalf("peekTime = %v, want 2", got)
		}
		e.Run(10, 0)
		if !math.IsInf(e.peekTime(), 1) {
			t.Fatalf("drained engine peekTime = %v, want +Inf", e.peekTime())
		}
	}
}

// scheduleAt places events at absolute times and panics on times in
// the past, on both backends.
func TestScheduleAt(t *testing.T) {
	for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
		e := mk()
		var order []int
		e.Schedule(3, func() { order = append(order, 1) })
		e.scheduleAt(2, func() { order = append(order, 0) })
		e.Run(10, 0)
		if len(order) != 2 || order[0] != 0 || order[1] != 1 {
			t.Fatalf("order = %v, want [0 1]", order)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("scheduleAt in the past did not panic")
				}
			}()
			e.scheduleAt(e.Now()-1, func() {})
		}()
	}
}
