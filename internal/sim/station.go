package sim

import (
	"fmt"
	"math"
)

// Admission selects how a Station picks the next waiting job when a
// time-sharing slot frees up.
type Admission int

const (
	// GlobalFIFO admits the job that has been waiting longest,
	// regardless of source — the application-server queue of the
	// paper's system model (§2).
	GlobalFIFO Admission = iota
	// PerSourceFIFO keeps one FIFO queue per source and admits from
	// the queues in round-robin order — the database server of the
	// paper's system model, which has "one FIFO queue per application
	// server".
	PerSourceFIFO
)

const remainEps = 1e-9

// job is one request in service or waiting at a Station. Jobs are
// pooled per station: a retired job returns to a free list and is
// reused by a later Submit, so the steady-state service loop performs
// no allocation.
type job struct {
	demand  float64 // service demand; once in service, Station.remain tracks what is left
	done    func()
	source  int
	arrived float64
	next    *job // free-list link
}

// Station is a processor-sharing service centre with a multiprogramming
// limit: up to MPL jobs are served simultaneously, each receiving an
// equal share of the station's speed, and further arrivals wait in
// FIFO queues. This is the paper's model of both server tiers: "both
// servers can process multiple requests concurrently via time-sharing"
// behind FIFO waiting queues.
type Station struct {
	eng       *Engine
	name      string
	speed     float64
	mpl       int
	admission Admission

	active  []*job
	remain  []float64    // remaining demand of active[i], contiguous for the per-event pass
	queues  []fifo[*job] // indexed by source id
	sources []int        // insertion-ordered source ids for round-robin
	known   []bool       // source id already registered in sources
	rrNext  int

	free     *job     // retired jobs for reuse
	finished []*job   // scratch: jobs retired by one completion event
	dones    []func() // scratch: their callbacks, run after release

	lastUpdate float64
	completion Event
	onComp     func() // onCompletion, bound once so scheduling allocates nothing

	// accumulated statistics
	statsSince   float64
	busyTime     float64
	areaActive   float64
	areaQueued   float64
	completed    uint64
	totalService float64
	queuedCount  int
}

// NewStation creates a station attached to eng. speed is the service
// rate multiplier (1 means demands are in time units); mpl is the
// maximum number of jobs in service at once (0 means unlimited); adm
// selects the admission discipline.
func NewStation(eng *Engine, name string, speed float64, mpl int, adm Admission) *Station {
	if speed <= 0 || math.IsNaN(speed) {
		panic(fmt.Sprintf("sim: station %q needs positive speed, got %v", name, speed))
	}
	if mpl < 0 {
		panic(fmt.Sprintf("sim: station %q needs non-negative MPL, got %d", name, mpl))
	}
	st := &Station{
		eng:       eng,
		name:      name,
		speed:     speed,
		mpl:       mpl,
		admission: adm,
	}
	st.onComp = st.onCompletion
	return st
}

// Name returns the station's label.
func (s *Station) Name() string { return s.name }

// queueFor returns the waiting queue for a source, registering the
// source in insertion order on first use. Sources must be small
// non-negative ids (server indices); the queues live in a slice so the
// per-call lookup is an index, not a map probe.
func (s *Station) queueFor(source int) *fifo[*job] {
	if source < 0 {
		panic(fmt.Sprintf("sim: station %q got negative source %d", s.name, source))
	}
	for source >= len(s.queues) {
		s.queues = append(s.queues, fifo[*job]{})
		s.known = append(s.known, false)
	}
	if !s.known[source] {
		s.known[source] = true
		s.sources = append(s.sources, source)
	}
	return &s.queues[source]
}

// Submit offers a job with the given service demand (time units at
// speed 1) from the given source. done runs when service completes.
// Zero-demand jobs complete via the event queue, preserving causal
// ordering. Negative or NaN demands panic: they are modelling bugs.
func (s *Station) Submit(source int, demand float64, done func()) {
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
	j := s.free
	if j != nil {
		s.free = j.next
		j.next = nil
	} else {
		j = &job{}
	}
	j.demand = demand
	j.done = done
	j.source = source
	j.arrived = s.eng.Now()
	if s.mpl == 0 || len(s.active) < s.mpl {
		s.active = append(s.active, j)
		s.remain = append(s.remain, demand)
		if demand < minRemaining {
			minRemaining = demand
		}
	} else {
		s.queueFor(source).push(j)
		s.queuedCount++
	}
	s.scheduleNext(minRemaining)
}

// release returns a retired job to the free list.
func (s *Station) release(j *job) {
	j.done = nil
	j.next = s.free
	s.free = j
}

// InService returns the number of jobs currently being time-shared.
func (s *Station) InService() int { return len(s.active) }

// Queued returns the number of jobs waiting for a slot.
func (s *Station) Queued() int { return s.queuedCount }

// accrue advances the time-weighted statistics to the engine's
// current time and returns the service each job in service received
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
			s.areaActive += elapsed * float64(n)
			s.totalService += elapsed * s.speed
		}
		s.areaQueued += elapsed * float64(s.queuedCount)
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
	s.completion = s.eng.Reschedule(s.completion, minRemaining*float64(n)/s.speed, s.onComp)
}

// onCompletion retires every job whose demand is exhausted, admits
// replacements from the waiting queues, and then runs the retired
// jobs' callbacks. Callbacks run after the station state is consistent
// so they may immediately Submit again (e.g. a request's next database
// call); retired jobs are recycled before the callbacks run, so a
// re-Submit can reuse them.
//
// The jobs in service are walked once: charge, stable partition into
// retired and kept, and the kept jobs' minimum happen in one loop that
// performs the same floating-point operations in the same per-job
// order as three separate passes would, so completion times are
// bit-identical to that reference (TestStationFusedMatchesReference).
func (s *Station) onCompletion() {
	s.completion = Event{}
	perJob, charge := s.accrue()
	finished := s.finished[:0]
	minRemaining := math.Inf(1)
	k := 0
	for i, r := range s.remain {
		if charge {
			r -= perJob
		}
		if r <= remainEps {
			finished = append(finished, s.active[i])
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
	s.active = s.active[:k]
	s.remain = s.remain[:k]
	s.completed += uint64(len(finished))
	for s.mpl == 0 || len(s.active) < s.mpl {
		if s.queuedCount == 0 {
			// Nothing waits: skip the scan over the sources, but leave the
			// round-robin cursor where the fruitless lap would have.
			if s.admission == PerSourceFIFO {
				s.rrNext += len(s.sources)
			}
			break
		}
		next := s.admitOne()
		s.active = append(s.active, next)
		s.remain = append(s.remain, next.demand)
		s.queuedCount--
		if next.demand < minRemaining {
			minRemaining = next.demand
		}
	}
	s.scheduleNext(minRemaining)
	dones := s.dones[:0]
	for _, j := range finished {
		dones = append(dones, j.done)
		s.release(j)
	}
	s.finished = finished[:0]
	for _, done := range dones {
		if done != nil {
			done()
		}
	}
	s.dones = dones[:0]
}

// admitOne removes and returns the next waiting job per the admission
// discipline, or nil when all queues are empty.
func (s *Station) admitOne() *job {
	switch s.admission {
	case PerSourceFIFO:
		for range s.sources {
			src := s.sources[s.rrNext%len(s.sources)]
			s.rrNext++
			if j, ok := s.queues[src].pop(); ok {
				return j
			}
		}
		return nil
	default: // GlobalFIFO: earliest arrival across all queues
		var best *job
		bestSrc := -1
		for _, src := range s.sources {
			j, ok := s.queues[src].peek()
			if !ok {
				continue
			}
			if best == nil || j.arrived < best.arrived {
				best = j
				bestSrc = src
			}
		}
		if best == nil {
			return nil
		}
		s.queues[bestSrc].pop()
		return best
	}
}

// ResetStats zeroes the accumulated statistics (typically after a
// warm-up period) without disturbing jobs in service or waiting.
func (s *Station) ResetStats() {
	s.update()
	s.statsSince = s.eng.Now()
	s.busyTime = 0
	s.areaActive = 0
	s.areaQueued = 0
	s.completed = 0
	s.totalService = 0
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

// MeanInService returns the time-average number of jobs in service
// since the last stats reset.
func (s *Station) MeanInService() float64 {
	s.update()
	elapsed := s.eng.Now() - s.statsSince
	if elapsed <= 0 {
		return 0
	}
	return s.areaActive / elapsed
}

// MeanQueued returns the time-average number of waiting jobs since the
// last stats reset.
func (s *Station) MeanQueued() float64 {
	s.update()
	elapsed := s.eng.Now() - s.statsSince
	if elapsed <= 0 {
		return 0
	}
	return s.areaQueued / elapsed
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
