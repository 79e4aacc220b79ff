package sim

import (
	"math"
	"slices"
	"testing"
)

func TestStationSingleJob(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "app", 1)
	var doneAt float64
	s.Submit(5, func() { doneAt = e.Now() })
	e.Run(100, 0)
	if doneAt != 5 {
		t.Fatalf("job finished at %v, want 5", doneAt)
	}
	if s.Completed() != 1 {
		t.Fatalf("completed = %d", s.Completed())
	}
}

func TestStationSpeedScalesService(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "fast", 2)
	var doneAt float64
	s.Submit(10, func() { doneAt = e.Now() })
	e.Run(100, 0)
	if doneAt != 5 {
		t.Fatalf("job on speed-2 server finished at %v, want 5", doneAt)
	}
}

func TestStationProcessorSharingTwoJobs(t *testing.T) {
	// Two equal jobs sharing one processor each finish at 2*demand.
	e := NewEngine()
	s := NewStation(e, "app", 1)
	var t1, t2 float64
	s.Submit(4, func() { t1 = e.Now() })
	s.Submit(4, func() { t2 = e.Now() })
	e.Run(100, 0)
	if math.Abs(t1-8) > 1e-9 || math.Abs(t2-8) > 1e-9 {
		t.Fatalf("finish times %v, %v; want 8, 8", t1, t2)
	}
}

func TestStationProcessorSharingUnequalJobs(t *testing.T) {
	// Jobs of demand 2 and 6 started together: the short one leaves at
	// t=4 (rate 1/2 each), then the long one runs alone with 4 units
	// remaining, finishing at t=8.
	e := NewEngine()
	s := NewStation(e, "app", 1)
	var tShort, tLong float64
	s.Submit(2, func() { tShort = e.Now() })
	s.Submit(6, func() { tLong = e.Now() })
	e.Run(100, 0)
	if math.Abs(tShort-4) > 1e-9 {
		t.Fatalf("short job finished at %v, want 4", tShort)
	}
	if math.Abs(tLong-8) > 1e-9 {
		t.Fatalf("long job finished at %v, want 8", tLong)
	}
}

func TestStationLateArrivalSharing(t *testing.T) {
	// Job A (demand 4) starts alone at t=0. Job B (demand 2) arrives at
	// t=2, when A has 2 remaining. They share: both finish at t=6.
	e := NewEngine()
	s := NewStation(e, "app", 1)
	var tA, tB float64
	s.Submit(4, func() { tA = e.Now() })
	e.Schedule(2, func() { s.Submit(2, func() { tB = e.Now() }) })
	e.Run(100, 0)
	if math.Abs(tA-6) > 1e-9 || math.Abs(tB-6) > 1e-9 {
		t.Fatalf("finish times A=%v B=%v, want 6, 6", tA, tB)
	}
}

func TestStationStats(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "app", 1)
	s.Submit(5, nil)
	e.Run(10, 0)
	// Busy 5 of 10 time units.
	if got := s.Utilization(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if got := s.Throughput(); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("throughput = %v, want 0.1", got)
	}
	s.ResetStats()
	if s.Utilization() != 0 || s.Completed() != 0 {
		t.Fatal("ResetStats did not zero statistics")
	}
}

func TestStationZeroDemand(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "app", 1)
	fired := false
	s.Submit(0, func() { fired = true })
	if fired {
		t.Fatal("zero-demand job completed synchronously; must go through the event queue")
	}
	e.Run(1, 0)
	if !fired {
		t.Fatal("zero-demand job never completed")
	}
}

func TestStationResubmitFromCallback(t *testing.T) {
	// A request that makes a database call from its completion callback
	// (the trade simulator's pattern) must be safe.
	e := NewEngine()
	s := NewStation(e, "app", 1)
	hops := 0
	var loop func()
	loop = func() {
		hops++
		if hops < 5 {
			s.Submit(1, loop)
		}
	}
	s.Submit(1, loop)
	e.Run(100, 0)
	if hops != 5 {
		t.Fatalf("hops = %d, want 5", hops)
	}
	if e.Now() > 100 {
		t.Fatal("clock ran past horizon")
	}
}

// A retired job's slot takes the last job in service, so the slots stop
// following submission order; the callbacks of jobs that retire at one
// instant must still run in submission order. Jobs 0 and 4 retire
// first, at t=5: job 4 moves into job 0's slot and retires there too,
// and job 3 takes the slot after it, leaving the slots as jobs 3, 1, 2.
// Those three then retire together, at t=32, in one event.
func TestStationRetiresInSubmissionOrderAfterSwaps(t *testing.T) {
	for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
		e := mk()
		s := NewStation(e, "app", 1)
		var got []int
		var at []float64
		for id, demand := range []float64{1, 10, 10, 10, 1} {
			s.Submit(demand, func() {
				got = append(got, id)
				at = append(at, e.Now())
			})
		}
		e.Run(6, 0)
		if !slices.Equal(s.order, []uint64{3, 1, 2}) {
			t.Fatalf("slots after the first retirement hold jobs %v, want [3 1 2]", s.order)
		}
		e.Run(100, 0)
		if want := []int{0, 4, 1, 2, 3}; !slices.Equal(got, want) {
			t.Fatalf("callbacks ran for jobs %v, want %v", got, want)
		}
		if want := []float64{5, 5, 32, 32, 32}; !slices.Equal(at, want) {
			t.Fatalf("completion times %v, want %v", at, want)
		}
		if s.Firings() != 2 {
			t.Fatalf("%d completion events, want 2", s.Firings())
		}
	}
}

func TestStationInvalidArgsPanic(t *testing.T) {
	e := NewEngine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative speed did not panic")
			}
		}()
		NewStation(e, "bad", -1)
	}()
	s := NewStation(e, "ok", 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative demand did not panic")
			}
		}()
		s.Submit(-3, nil)
	}()
}

func TestStationMM1PSMeanResponse(t *testing.T) {
	// M/M/1-PS sanity check: with Poisson(λ) arrivals and exponential
	// demands of mean S, the mean response time is S/(1-ρ). Use
	// λ = 0.5, S = 1 → ρ = 0.5 → E[T] = 2.
	e := NewEngine()
	s := NewStation(e, "app", 1)
	rng := NewStream(12345)
	var acc struct {
		sum float64
		n   int
	}
	const lambda, S = 0.5, 1.0
	var arrive func()
	arrive = func() {
		start := e.Now()
		s.Submit(rng.Exp(S), func() {
			if start > 2000 { // warm-up
				acc.sum += e.Now() - start
				acc.n++
			}
		})
		e.Schedule(rng.Exp(1/lambda), arrive)
	}
	e.Schedule(0, arrive)
	e.Run(120000, 0)
	got := acc.sum / float64(acc.n)
	if acc.n < 10000 {
		t.Fatalf("too few samples: %d", acc.n)
	}
	if math.Abs(got-2)/2 > 0.08 {
		t.Fatalf("M/M/1-PS mean response = %v, want ≈2 (n=%d)", got, acc.n)
	}
}

// Past ~2e7 simulated seconds a float64 clock no longer resolves the
// last nanoseconds of a millisecond demand: now + remaining·n/speed
// rounds back to now while remaining is still above remainEps. The
// completion event must retire the least-remaining jobs there instead
// of re-firing at one instant forever (a long trace replay gets this
// far). The event limit turns a livelock into a failure, not a hang.
func TestStationCompletesOnLargeClock(t *testing.T) {
	const (
		submits   = 200000
		perRunCap = 1000 // events one short Run may fire; a healthy one fires a handful
	)
	for _, start := range []float64{2e7, 1e8, 1e9} {
		e := NewEngineCalendar()
		e.Run(start, 0)
		s := NewStation(e, "cpu", 1)
		rng := NewStream(41)
		completed := 0
		done := func() { completed++ }
		for i := 0; i < submits; i++ {
			demand := rng.Exp(0.001)
			switch i % 10 {
			case 3:
				demand = 0
			case 7:
				demand = rng.Exp(0.010)
			}
			s.Submit(demand, done)
			if fired := e.Run(e.Now()+rng.Exp(0.003), perRunCap); fired >= perRunCap {
				t.Fatalf("clock %g: livelock after %d submits (%d completed): one Run fired %d events", start, i+1, completed, fired)
			}
		}
		if fired := e.Run(e.Now()+60, submits); fired >= submits {
			t.Fatalf("clock %g: livelock while draining (%d completed)", start, completed)
		}
		if completed != submits || s.InService() != 0 {
			t.Fatalf("clock %g: %d of %d jobs completed, %d still in service", start, completed, submits, s.InService())
		}
	}
}
