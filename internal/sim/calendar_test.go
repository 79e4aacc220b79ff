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

// Property: the bulk a build schedules before the calendar is first
// read, laid out at once by the first peek, fires in the heap engine's
// order. The bulk holds equal-time ties and moved heap events, and a
// peek in its middle lays out the first part, so the rest is pushed
// into the buckets one by one.
func TestCalendarBulkPrefixMatchesHeapProperty(t *testing.T) {
	run := func(e *Engine, seed int64, n, mid int) []int {
		rng := NewStream(seed)
		var order []int
		var held *event // pending in the heap: nothing fires during the bulk
		for i := 0; i < n; i++ {
			id := i
			act := func() {
				order = append(order, id)
				if rng.Float64() < 0.3 {
					e.Schedule(rng.Exp(2), func() { order = append(order, -id) })
				}
			}
			switch x := rng.Float64(); {
			case x < 0.2:
				e.Schedule(float64(rng.Intn(4)), act) // ties
			case x < 0.3:
				held = e.reschedule(held, rng.Exp(3), act)
			case x < 0.4:
				ev := e.reschedule(nil, rng.Exp(3), act)
				e.reschedule(ev, rng.Exp(3), act)
			default:
				e.Schedule(rng.Exp(float64(1+rng.Intn(20))), act)
			}
			if i == mid {
				e.peekTime()
			}
		}
		for e.Step() {
		}
		return order
	}
	f := func(seed int64, nRaw, midRaw uint16) bool {
		n := int(nRaw)%3000 + 1
		mid := int(midRaw) % n
		a := run(NewEngine(), seed, n, mid)
		b := run(NewEngineCalendar(), seed, n, mid)
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

// Events scheduled before the first read are linked into a bucket
// once, by the first peek, at the bucket count pushing them one by one
// would have grown to; a calendar that bucketed each push re-linked
// every resident event at each of its doublings.
func TestCalendarLayoutLinksEachEventOnce(t *testing.T) {
	e := NewEngineCalendar()
	rng := NewStream(5)
	const n = 50000
	for i := 0; i < n; i++ {
		e.Schedule(rng.Exp(7), func() {})
	}
	if e.cal.links != 0 || e.cal.buckets != nil {
		t.Fatalf("%d links into %d buckets before the first read, want none", e.cal.links, len(e.cal.buckets))
	}
	e.peekTime()
	if e.cal.links != n {
		t.Errorf("%d links for %d events, want one each", e.cal.links, n)
	}
	if got := len(e.cal.buckets); got != 32768 {
		t.Errorf("%d buckets for %d events, want 32768, the least power of two holding two per bucket", got, n)
	}
}

// A windowed build — shards behind a barrier hook, so the coordinator
// reads every engine at each window — links each event at most once
// through its first window.
func TestCalendarWindowedBuildLinksEachEventOnce(t *testing.T) {
	const shards, clients = 2, 20000
	c := NewCoordinator(shards, 0.005)
	defer c.Close()
	c.SetBarrierHook(func(float64) {})
	root := NewStream(11)
	for i := 0; i < shards; i++ {
		e, rng := c.Shard(i).Eng, root.Split(uint64(i))
		var think func()
		think = func() { e.Schedule(rng.Exp(7), think) }
		for j := 0; j < clients; j++ {
			think()
		}
	}
	c.Run(0.005)
	for i := 0; i < shards; i++ {
		e := c.Shard(i).Eng
		if scheduled := e.reuses + e.allocs; e.cal.links < clients || e.cal.links > scheduled {
			t.Errorf("shard %d: %d links for %d events scheduled, want each linked once", i, e.cal.links, scheduled)
		}
	}
}

// The first layout's width is calendarGapsPerSlot mean gaps among the
// events in the first of calendarHeadBins bins of the spread: 513
// events every 1/8 from time 10, pushed in shuffled order, span 64, so
// the head bin [10, 11) holds 8 and the width is 3/8 — narrower than
// the spread fit, 4 × 64/513.
func TestCalendarFirstLayoutFitsHead(t *testing.T) {
	e := NewEngineCalendar()
	const n = 513
	for j := 0; j < n; j++ {
		i := (200*j + 7) % n // 200 is prime to 513: every i once
		e.Schedule(10+float64(i)/8, func() {})
	}
	if got := e.peekTime(); got != 10 {
		t.Fatalf("peekTime = %v, want 10", got)
	}
	if e.cal.width != 0.375 {
		t.Errorf("width %v, want 0.375", e.cal.width)
	}
	if got := len(e.cal.buckets); got != 512 {
		t.Errorf("%d buckets for %d events, want 512", got, n)
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
// events landing right at the head — the bucket width must fit the
// head and then follow the dequeue rate, or every pop re-scans a head
// bucket holding ~ln N times too many events (≈ 85 per pop with a
// width fitted to the spread). A count, not a time, so it gates on any
// machine. The head fit may already lie within the re-fit slack, so
// the rate is checked directly: the final width must sit within
// calendarRefitSlack of calendarGapsPerSlot measured dequeue gaps.
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
	cq := e.cal
	if target := calendarGapsPerSlot * cq.gap; !(cq.width <= calendarRefitSlack*target && cq.width*calendarRefitSlack >= target) {
		t.Errorf("width %.3g is off %d mean dequeue gaps of %.3g by more than %d×", cq.width, calendarGapsPerSlot, cq.gap, calendarRefitSlack)
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
	e.peekTime() // lay the calendar out
	cq := e.cal
	w := cq.width
	if a := testing.AllocsPerRun(20, func() {
		w *= 1.5
		all, _, _ := cq.unlinkAll()
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
		e.scheduleAt(2, func() { order = append(order, 0) }, 0)
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
			e.scheduleAt(e.Now()-1, func() {}, 0)
		}()
	}
}
