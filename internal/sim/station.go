package sim

import (
	"fmt"
	"math"
)

const remainEps = 1e-9

// Station is a processor-sharing CPU: every submitted job is in service
// at once, each receiving an equal share of the station's speed. This
// is the time-sharing half of the paper's model of both server tiers
// ("both servers can process multiple requests concurrently via
// time-sharing"); the multiprogramming limit and the FIFO waiting
// queues in front of it are a Semaphore, which a request holds across
// its CPU bursts.
type Station struct {
	eng   *Engine
	name  string
	speed float64

	// The jobs in service, as two parallel slices that reuse their
	// backing arrays, so the steady-state service loop allocates nothing.
	active []func()  // completion callbacks
	remain []float64 // remaining demand of active[i], contiguous for the per-event pass

	dones []func() // scratch: callbacks of the jobs one completion event retired

	lastUpdate float64
	completion Event
	onComp     func() // onCompletion, bound once so scheduling allocates nothing

	// accumulated statistics
	statsSince float64
	busyTime   float64
	completed  uint64
}

// NewStation creates a station attached to eng. speed is the service
// rate multiplier (1 means demands are in time units).
func NewStation(eng *Engine, name string, speed float64) *Station {
	if speed <= 0 || math.IsNaN(speed) {
		panic(fmt.Sprintf("sim: station %q needs positive speed, got %v", name, speed))
	}
	st := &Station{eng: eng, name: name, speed: speed}
	st.onComp = st.onCompletion
	return st
}

// Name returns the station's label.
func (s *Station) Name() string { return s.name }

// Submit puts a job with the given service demand (time units at
// speed 1) into service. done runs when service completes. Zero-demand
// jobs complete via the event queue, preserving causal ordering.
// Negative or NaN demands panic: they are modelling bugs.
func (s *Station) Submit(demand float64, done func()) {
	if demand < 0 || math.IsNaN(demand) {
		panic(fmt.Sprintf("sim: station %q got invalid demand %v", s.name, demand))
	}
	// One pass over the jobs in service: charge the service delivered
	// since the last event and find the least remaining demand.
	perJob, charge := s.accrue()
	minRemaining := math.Inf(1)
	for i, r := range s.remain {
		if charge {
			r -= perJob
			s.remain[i] = r
		}
		if r < minRemaining {
			minRemaining = r
		}
	}
	s.active = append(s.active, done)
	s.remain = append(s.remain, demand)
	if demand < minRemaining {
		minRemaining = demand
	}
	s.scheduleNext(minRemaining)
}

// InService returns the number of jobs currently being time-shared.
func (s *Station) InService() int { return len(s.active) }

// accrue advances the busy-time statistic to the engine's current
// time and returns the service each job in service received
// since the last call; charge is false when there is nothing to
// subtract (no time passed, or nothing in service).
func (s *Station) accrue() (perJob float64, charge bool) {
	now := s.eng.Now()
	elapsed := now - s.lastUpdate
	if elapsed > 0 {
		if n := len(s.active); n > 0 {
			perJob = elapsed * s.speed / float64(n)
			charge = true
			s.busyTime += elapsed
		}
	}
	s.lastUpdate = now
	return perJob, charge
}

// update brings the remaining demands and the statistics to the
// engine's current time, for the readers below. Submit and
// onCompletion fuse the same subtraction into their own single pass.
func (s *Station) update() {
	if perJob, charge := s.accrue(); charge {
		for i := range s.remain {
			s.remain[i] -= perJob
		}
	}
}

// scheduleNext moves the completion event to when the job with the
// least remaining demand finishes — the station's one scheduling
// routine. A stale handle (the completion just fired) schedules
// afresh.
func (s *Station) scheduleNext(minRemaining float64) {
	n := len(s.active)
	if n == 0 {
		return
	}
	if minRemaining < 0 {
		minRemaining = 0
	}
	s.completion = s.eng.reschedule(s.completion, minRemaining*float64(n)/s.speed, s.onComp)
}

// onCompletion retires every job whose demand is exhausted and then
// runs the retired jobs' callbacks. Callbacks run after the station
// state is consistent so they may immediately Submit again (e.g. a
// request's next database call).
//
// The jobs in service are walked once: charge, stable partition into
// retired and kept, and the kept jobs' minimum happen in one loop that
// performs the same floating-point operations in the same per-job
// order as three separate passes would, so completion times are
// bit-identical to that reference (TestStationFusedMatchesReference).
func (s *Station) onCompletion() {
	s.completion = Event{}
	perJob, charge := s.accrue()
	dones, minRemaining := s.retire(perJob, charge, remainEps)
	if !charge && len(dones) == 0 {
		// No simulated time elapsed and nothing retired: the clock is so
		// large that now + the least remaining service rounds back to now
		// (past ~2e7 s for millisecond demands), so this event would
		// re-fire at this instant forever. Those jobs are as finished as a
		// float64 clock can tell.
		dones, minRemaining = s.retire(0, false, minRemaining)
	}
	s.completed += uint64(len(dones))
	s.scheduleNext(minRemaining)
	for i, done := range dones {
		dones[i] = nil
		if done != nil {
			done()
		}
	}
}

// retire charges perJob to every job in service (when charge is set),
// removes those with at most limit demand remaining, and returns their
// callbacks in service order, in the station's scratch slice, with the
// least remaining demand among the jobs kept.
func (s *Station) retire(perJob float64, charge bool, limit float64) (dones []func(), minRemaining float64) {
	dones = s.dones[:0]
	minRemaining = math.Inf(1)
	k := 0
	for i, r := range s.remain {
		if charge {
			r -= perJob
		}
		if r <= limit {
			dones = append(dones, s.active[i])
			continue
		}
		if k != i {
			s.active[k] = s.active[i]
		}
		s.remain[k] = r
		k++
		if r < minRemaining {
			minRemaining = r
		}
	}
	for i := k; i < len(s.active); i++ {
		s.active[i] = nil // drop the callback references for GC
	}
	s.active = s.active[:k]
	s.remain = s.remain[:k]
	s.dones = dones
	return dones, minRemaining
}

// ResetStats zeroes the accumulated statistics (typically after a
// warm-up period) without disturbing jobs in service or waiting.
func (s *Station) ResetStats() {
	s.update()
	s.statsSince = s.eng.Now()
	s.busyTime = 0
	s.completed = 0
}

// Utilization returns the fraction of time since the last stats reset
// that at least one job was in service.
func (s *Station) Utilization() float64 {
	s.update()
	elapsed := s.eng.Now() - s.statsSince
	if elapsed <= 0 {
		return 0
	}
	return s.busyTime / elapsed
}

// Completed returns the number of jobs finished since the last stats
// reset.
func (s *Station) Completed() uint64 {
	return s.completed
}

// Throughput returns completions per time unit since the last stats
// reset.
func (s *Station) Throughput() float64 {
	elapsed := s.eng.Now() - s.statsSince
	if elapsed <= 0 {
		return 0
	}
	return float64(s.completed) / elapsed
}
