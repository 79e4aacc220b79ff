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
//
// The jobs in service sit in parallel slices in no particular order: a
// retired job's slot takes the last job. Each job carries its
// submission number, so the jobs one event retires still call back in
// submission order. The station also keeps the least remaining demand,
// so a Submit charges every job but searches none.
type Station struct {
	eng   *Engine
	name  string
	speed float64

	// The jobs in service, as three parallel slices that reuse their
	// backing arrays, so the steady-state service loop allocates nothing.
	active []func()  // completion callbacks
	remain []float64 // remaining demand of active[i], contiguous for the per-event pass
	order  []uint64  // submission number of active[i]

	least     float64 // min(remain), exactly; +Inf while no job is in service
	submitted uint64  // jobs ever submitted: the next submission number

	dones []retired // scratch: the jobs one completion event retired

	lastUpdate float64
	completion *event // pending in the heap while a job is in service, else nil
	onComp     func() // onCompletion, bound once so scheduling allocates nothing

	// accumulated statistics
	statsSince float64
	busyTime   float64
	completed  uint64
	firings    uint64 // completion events fired; never reset
}

// NewStation creates a station attached to eng. speed is the service
// rate multiplier (1 means demands are in time units).
func NewStation(eng *Engine, name string, speed float64) *Station {
	if speed <= 0 || math.IsNaN(speed) {
		panic(fmt.Sprintf("sim: station %q needs positive speed, got %v", name, speed))
	}
	st := &Station{eng: eng, name: name, speed: speed, least: math.Inf(1)}
	st.onComp = st.onCompletion
	return st
}

// Name returns the station's label.
func (s *Station) Name() string { return s.name }

// Submit puts a job with the given service demand (time units at
// speed 1) into service. done runs when service completes. Zero-demand
// jobs complete via the event queue, preserving causal ordering.
// Negative or NaN demands panic: they are modelling bugs.
//
// Submit charges every job in service the service delivered since the
// last event, but needs no search for the least remaining demand:
// float subtraction rounds monotonically (a ≤ b implies
// fl(a−p) ≤ fl(b−p)), so the least after the charge is the least
// before it, charged the same way.
func (s *Station) Submit(demand float64, done func()) {
	if demand < 0 || math.IsNaN(demand) {
		panic(fmt.Sprintf("sim: station %q got invalid demand %v", s.name, demand))
	}
	s.update()
	s.active = append(s.active, done)
	s.remain = append(s.remain, demand)
	s.order = append(s.order, s.submitted)
	s.submitted++
	if demand < s.least {
		s.least = demand
	}
	s.scheduleNext()
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

// update brings the remaining demands, their least value and the
// statistics to the engine's current time. onCompletion fuses the same
// subtraction into its retiring pass.
func (s *Station) update() {
	if perJob, charge := s.accrue(); charge {
		remain := s.remain
		for i := range remain {
			remain[i] -= perJob
		}
		s.least -= perJob
	}
}

// scheduleNext moves the completion event to when the job with the
// least remaining demand finishes — the station's one scheduling
// routine. With no completion pending (the station was idle, or its
// completion just fired) it schedules one afresh.
func (s *Station) scheduleNext() {
	n := len(s.active)
	if n == 0 {
		return
	}
	least := s.least
	if least < 0 {
		least = 0
	}
	s.completion = s.eng.reschedule(s.completion, least*float64(n)/s.speed, s.onComp)
}

// retired is a job one completion event took out of service.
type retired struct {
	order uint64 // submission number
	done  func()
}

// onCompletion retires every job whose demand is exhausted and then
// runs the retired jobs' callbacks in submission order. Callbacks run
// after the station state is consistent so they may immediately Submit
// again (e.g. a request's next database call).
//
// The jobs in service are walked once: charge, retire and the kept
// jobs' minimum happen in one loop that performs the same
// floating-point operations on each job as three separate passes
// would, so completion times are bit-identical to that reference
// (TestStationFusedMatchesReference).
func (s *Station) onCompletion() {
	s.completion = nil // fired: the engine has it back
	s.firings++
	perJob, charge := s.accrue()
	dones := s.retire(perJob, remainEps)
	if !charge && len(dones) == 0 {
		// No simulated time elapsed and nothing retired: the clock is so
		// large that now + the least remaining service rounds back to now
		// (past ~2e7 s for millisecond demands), so this event would
		// re-fire at this instant forever. Those jobs are as finished as a
		// float64 clock can tell.
		dones = s.retire(0, s.least)
	}
	s.completed += uint64(len(dones))
	s.scheduleNext()
	for i := 1; i < len(dones); i++ { // insertion sort: an event retires few jobs
		for j := i; j > 0 && dones[j].order < dones[j-1].order; j-- {
			dones[j], dones[j-1] = dones[j-1], dones[j]
		}
	}
	for i := range dones {
		done := dones[i].done
		dones[i].done = nil
		if done != nil {
			done()
		}
	}
}

// retire charges perJob to every job in service (0 charges nothing:
// r − 0 is r, bit for bit), removes those with at most limit demand
// remaining, sets the least remaining demand among the jobs kept, and
// returns the retired jobs in the station's scratch slice. A retired
// job's slot takes the last job, which is then examined in that slot;
// the last job is never charged before it moves, so each job is
// charged exactly once.
func (s *Station) retire(perJob, limit float64) []retired {
	dones := s.dones[:0]
	least := math.Inf(1)
	active, remain, order := s.active, s.remain, s.order
	for i := 0; i < len(remain); {
		r := remain[i] - perJob
		if r <= limit {
			dones = append(dones, retired{order[i], active[i]})
			last := len(remain) - 1
			active[i], remain[i], order[i] = active[last], remain[last], order[last]
			active[last] = nil // drop the callback reference for GC
			active, remain, order = active[:last], remain[:last], order[:last]
			continue
		}
		remain[i] = r
		if r < least {
			least = r
		}
		i++
	}
	s.active, s.remain, s.order = active, remain, order
	s.least = least
	s.dones = dones
	return dones
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

// Firings returns how many completion events the station has fired
// since it was built; ResetStats leaves it. One event retires every job
// that finishes at its instant.
func (s *Station) Firings() uint64 { return s.firings }

// Throughput returns completions per time unit since the last stats
// reset.
func (s *Station) Throughput() float64 {
	elapsed := s.eng.Now() - s.statsSince
	if elapsed <= 0 {
		return 0
	}
	return float64(s.completed) / elapsed
}
