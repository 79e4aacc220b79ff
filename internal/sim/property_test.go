package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// server is the composition trade builds for both tiers: a Semaphore
// holding the multiprogramming limit in front of a processor-sharing
// Station. submit queues for a slot, serves the demand and releases the
// slot before running done.
type server struct {
	slots *Semaphore
	cpu   *Station
}

func newServer(e *Engine, speed float64, mpl int) *server {
	return &server{slots: NewSemaphore(e, "prop/slots", mpl, GlobalFIFO), cpu: NewStation(e, "prop/cpu", speed)}
}

func (sv *server) submit(demand float64, done func()) {
	sv.slots.Acquire(0, func() {
		sv.cpu.Submit(demand, func() {
			sv.slots.Release()
			done()
		})
	})
}

// Property: a processor-sharing station conserves work — once every
// job has completed, the integrated busy time times the speed equals
// the sum of all submitted demands, regardless of arrival pattern,
// speed or multiprogramming limit.
func TestStationWorkConservationProperty(t *testing.T) {
	f := func(seed int64, rawSpeed, rawMPL uint8, nJobs uint8) bool {
		speed := 0.5 + float64(rawSpeed%8)/2 // 0.5 .. 4.0
		n := int(nJobs%40) + 1
		mpl := int(rawMPL % 5) // 1 .. 4; 0 stands for a limit no job waits on
		if mpl == 0 {
			mpl = n
		}
		e := NewEngine()
		sv := newServer(e, speed, mpl)
		rng := NewStream(seed)
		var total float64
		done := 0
		for i := 0; i < n; i++ {
			d := rng.Exp(2.0)
			total += d
			e.Schedule(rng.Exp(1.0), func() {
				sv.submit(d, func() { done++ })
			})
		}
		e.Run(1e9, 0)
		if done != n {
			return false
		}
		if sv.cpu.Completed() != uint64(n) {
			return false
		}
		// busyTime × speed == Σ demands
		delivered := sv.cpu.Utilization() * e.Now() * speed
		return math.Abs(delivered-total) < 1e-6*(1+total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: FIFO admission in front of an MPL-limited station never
// loses or duplicates a job, the station never serves more than the
// limit at once, and completions never exceed submissions at any point
// in time.
func TestStationJobConservationProperty(t *testing.T) {
	f := func(seed int64, nJobs uint8) bool {
		n := int(nJobs%60) + 1
		e := NewEngine()
		sv := newServer(e, 1, 2)
		rng := NewStream(seed)
		completions := 0
		for i := 0; i < n; i++ {
			e.Schedule(rng.Exp(0.5), func() {
				sv.submit(rng.Exp(1.0), func() { completions++ })
			})
		}
		for e.Step() {
			inService := sv.cpu.InService()
			if inService > 2 || inService != sv.slots.Held() || completions+inService+sv.slots.Queued() > n {
				return false
			}
		}
		return completions == n && sv.cpu.InService() == 0 && sv.slots.Queued() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: a station owns its completion event exactly while it has
// work. After every Submit, every callback and every fired event, the
// completion is nil when no job is in service, and otherwise sits in
// its engine's heap at its own index — the pending heap event
// reschedule requires — on both backends.
func TestStationOwnsItsCompletionProperty(t *testing.T) {
	f := func(seed int64, rawSpeed, nJobs uint8) bool {
		speed := 0.5 + float64(rawSpeed%8)/2
		n := int(nJobs%60) + 1
		for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
			e := mk()
			st := NewStation(e, "prop/own", speed)
			rng := NewStream(seed)
			ok := true
			check := func() {
				c := st.completion
				if st.InService() == 0 {
					ok = ok && c == nil
				} else {
					ok = ok && c != nil && int(c.index) < len(e.queue) && e.queue[c.index] == c
				}
			}
			for i := 0; i < n; i++ {
				// Demands from a small set, so jobs finish together and
				// zero demands occur.
				d := float64(rng.Intn(3)) / 2
				if rng.Float64() < 0.5 {
					d = rng.Exp(1)
				}
				resubmit := rng.Float64() < 0.3
				e.Schedule(float64(rng.Intn(8))/4, func() {
					st.Submit(d, func() {
						check()
						if resubmit {
							st.Submit(rng.Exp(0.5), check)
							check()
						}
					})
					check()
				})
			}
			for e.Step() {
				check()
			}
			if !ok || st.InService() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the least remaining demand a station tracks equals, bit
// for bit, a full scan of its jobs in service after every Submit,
// every fired event, every callback and every update a reader forces —
// over zero demands, simultaneous arrivals, resubmits from callbacks
// and clocks large enough that a completion retires by the float64
// clock's resolution rather than by its charge (see
// TestStationCompletesOnLargeClock), on both backends.
func TestStationLeastRemainingMatchesScan(t *testing.T) {
	f := func(seed int64, rawSpeed, rawClock, nJobs uint8) bool {
		speed := 0.5 + float64(rawSpeed%8)/2
		n := int(nJobs%80) + 1
		start, scale := 0.0, 1.0
		switch rawClock % 4 {
		case 2:
			start, scale = 2e7, 1e-3
		case 3:
			start, scale = 1e9, 1e-3
		}
		for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
			e := mk()
			e.Run(start, 0)
			st := NewStation(e, "prop/least", speed)
			rng := NewStream(seed)
			ok := true
			check := func() {
				scan := math.Inf(1)
				for _, r := range st.remain {
					if r < scan {
						scan = r
					}
				}
				ok = ok && math.Float64bits(st.least) == math.Float64bits(scan) &&
					len(st.order) == len(st.remain) && len(st.active) == len(st.remain)
			}
			for i := 0; i < n; i++ {
				// Demands from a small set, so jobs finish together and
				// zero demands occur.
				d := float64(rng.Intn(3)) / 2 * scale
				if rng.Float64() < 0.5 {
					d = rng.Exp(scale)
				}
				resubmit := rng.Float64() < 0.3
				probe := rng.Float64() < 0.2
				e.Schedule(float64(rng.Intn(8))/4*scale, func() {
					st.Submit(d, func() {
						check()
						if resubmit {
							st.Submit(rng.Exp(scale/2), check)
							check()
						}
					})
					check()
					if probe {
						st.Utilization() // update: charge every job to now
						check()
					}
				})
			}
			for fired := 0; e.Step(); fired++ {
				check()
				if fired > 100*n {
					return false // livelock
				}
			}
			if !ok || st.InService() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: semaphore grants never exceed capacity concurrently and
// every queued waiter is eventually granted once releases catch up.
func TestSemaphoreInvariantProperty(t *testing.T) {
	f := func(seed int64, capRaw, nRaw uint8) bool {
		capacity := int(capRaw%5) + 1
		n := int(nRaw%50) + 1
		e := NewEngine()
		s := NewSemaphore(e, "prop", capacity, GlobalFIFO)
		rng := NewStream(seed)
		granted := 0
		for i := 0; i < n; i++ {
			e.Schedule(rng.Exp(1.0), func() {
				s.Acquire(0, func() {
					granted++
					if s.Held() > capacity {
						panic("capacity exceeded")
					}
					// Hold the slot for a while, then release.
					e.Schedule(rng.Exp(0.5), s.Release)
				})
			})
		}
		e.Run(1e9, 0)
		return granted == n && s.Held() == 0 && s.Queued() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
