package sim

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkSchedule measures the steady-state cost of scheduling one
// event into a queue of pending events. After the first pool fill the
// free list supplies every event, so allocs/op must report 0.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	const pending = 1024
	for i := 0; i < pending; i++ {
		e.Schedule(float64(i%64), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(float64(i%64), nop)
		if e.pending() > 2*pending {
			e.Run(e.Now()+16, 0)
		}
	}
}

// BenchmarkRunDrain measures the full schedule→pop→fire cycle via a
// self-perpetuating event chain: each firing schedules its successor,
// which is exactly the hot loop of the trade simulator's think/serve
// cycles. Steady state must be allocation-free per event.
func BenchmarkRunDrain(b *testing.B) {
	e := NewEngine()
	remaining := b.N
	var tick func()
	tick = func() {
		remaining--
		if remaining > 0 {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(math.Inf(1), 0)
	if remaining != 0 {
		b.Fatalf("chain stopped with %d events left", remaining)
	}
}

// BenchmarkCalendarHold measures per-event cost with a large constant
// population of self-rescheduling timers resident in the queue — the
// regime a fleet shard lives in, one pending think timer per idle
// client. The calendar's O(1) bucket operations are the point of the
// backend, and steady state must stay allocation-free: the intrusive
// bucket lists reuse the events' own link field.
//
// The uniform case fills on [0,1) and then holds Exp(1), so the density
// the fill-time width was fitted to equals the density at the head by
// construction: it cannot tell a calendar whose width is stale from one
// whose width is right. The fleet-shaped case is what the fleets
// actually present: Exp(7) think timers from t = 0, so the pending set
// thins out exponentially and the head is ~ln N denser than the mean,
// and every firing starts a ~5 ms service event that a second arrival
// moves once before it fires.
func BenchmarkCalendarHold(b *testing.B) {
	const pending = 65536
	uniform := func(e *Engine) {
		rng := NewStream(7)
		var fire func()
		fire = func() { e.Schedule(rng.Exp(1), fire) }
		for i := 0; i < pending; i++ {
			e.Schedule(rng.Float64(), fire)
		}
	}
	fleetShaped := func(e *Engine) {
		rng := NewStream(7)
		var request func()
		think := func() { e.Schedule(rng.Exp(7), request) }
		request = func() {
			ev := e.reschedule(nil, rng.Exp(0.005), think)
			e.reschedule(ev, rng.Exp(0.005), think)
		}
		for i := 0; i < pending; i++ {
			e.Schedule(rng.Exp(7), request)
		}
		e.Run(14, 0) // two turnovers: measure the steady state, not the fill
	}
	for _, bc := range []struct {
		name string
		mk   func() *Engine
		fill func(*Engine)
	}{
		{"heap", NewEngine, uniform},
		{"calendar", NewEngineCalendar, uniform},
		{"fleet-shaped/heap", NewEngine, fleetShaped},
		{"fleet-shaped/calendar", NewEngineCalendar, fleetShaped},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := bc.mk()
			bc.fill(e)
			b.ReportAllocs()
			b.ResetTimer()
			e.Run(math.Inf(1), uint64(b.N))
		})
	}
}

// BenchmarkShardWindow measures one coordinator synchronisation window
// across shards exchanging cross-shard messages — delivery, window
// execution, barrier, outbox routing. Steady state must be
// allocation-free: message buffers and the delivery sorter are
// retained across windows.
func BenchmarkShardWindow(b *testing.B) {
	const lookahead = 1.0
	c := NewCoordinator(4, lookahead)
	defer c.Close()
	rng := NewStream(11)
	for i, sh := range c.shards {
		sh := sh
		id, peer := uint64(i), (i+1)%len(c.shards)
		r := rng.Split(id)
		var seq uint64
		var tick func()
		tick = func() {
			sh.Eng.Schedule(r.Exp(0.2), tick)
			seq++
			sh.Send(peer, id, seq, lookahead+r.Exp(0.1), func() {})
		}
		sh.Eng.Schedule(r.Float64(), tick)
	}
	until := 0.0
	c.Run(64) // fill event pools, message buffers, outbox slices
	until = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		until += lookahead
		c.Run(until)
	}
	b.StopTimer() // the deferred Close waits for the workers to exit: not a window's cost
}

// BenchmarkStationSubmit measures one processor-sharing service cycle
// end to end (Submit → completion event → callback), the innermost
// loop of every simulated measurement.
func BenchmarkStationSubmit(b *testing.B) {
	e := NewEngine()
	s := NewStation(e, "cpu", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(0.001, nil)
		e.Run(e.Now()+1, 0)
	}
}

// BenchmarkStationChurn measures one arrival plus one completion at a
// station holding a fixed number of jobs in service — 20, the database
// server's multiprogramming limit, and 50, a saturated application
// server — where the per-event walk over the jobs in service, not the
// scheduler, is the cost.
func BenchmarkStationChurn(b *testing.B) {
	for _, jobs := range []int{20, 50} {
		for _, bc := range []struct {
			name string
			mk   func() *Engine
		}{{"heap", NewEngine}, {"calendar", NewEngineCalendar}} {
			b.Run(fmt.Sprintf("%s/jobs=%d", bc.name, jobs), func(b *testing.B) {
				e := bc.mk()
				s := NewStation(e, "app", 1)
				rng := NewStream(13)
				var done func()
				done = func() { s.Submit(rng.Exp(0.005), done) }
				for i := 0; i < jobs; i++ {
					done()
				}
				b.ReportAllocs()
				b.ResetTimer()
				e.Run(math.Inf(1), uint64(b.N))
			})
		}
	}
}
