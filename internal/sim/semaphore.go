package sim

import "fmt"

// Semaphore models a bounded pool of admission slots — the
// servlet-thread pool of an application server or the agent pool of a
// database server. A request holds its slot from admission to response,
// including while it is blocked on a lower tier and consuming no CPU;
// the companion Station models the CPU itself. Together they realise
// the paper's "FIFO waiting queue in front of a server that processes
// up to MPL requests at the same time via time-sharing".
//
// Waiters queue FIFO per source, and a freed slot goes to the sources'
// queues in round-robin order — the database server's "one FIFO queue
// per application server" (§2). A pool whose callers all pass source 0
// has one queue and grants in arrival order, as an application server
// does.
//
// Waiters are stored as a callback and its argument in per-source ring
// buffers, so queueing and granting allocate nothing in steady state.
type Semaphore struct {
	eng      *Engine
	name     string
	capacity int

	held    int
	queues  []fifo[callback] // indexed by source id
	sources []int            // insertion-ordered source ids
	known   []bool
	rrNext  int

	// statistics
	statsSince float64
	lastUpdate float64
	areaHeld   float64
	areaQueued float64
	queued     int
}

// NewSemaphore creates a pool of capacity slots.
func NewSemaphore(eng *Engine, name string, capacity int) *Semaphore {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: semaphore %q needs positive capacity, got %d", name, capacity))
	}
	return &Semaphore{eng: eng, name: name, capacity: capacity}
}

// Held returns the number of slots currently held.
func (s *Semaphore) Held() int { return s.held }

// Queued returns the number of acquisitions waiting for a slot.
func (s *Semaphore) Queued() int { return s.queued }

// queueFor returns the waiting queue for a source, registering the
// source in insertion order on first use.
func (s *Semaphore) queueFor(source int) *fifo[callback] {
	if source < 0 {
		panic(fmt.Sprintf("sim: semaphore %q got negative source %d", s.name, source))
	}
	for source >= len(s.queues) {
		s.queues = append(s.queues, fifo[callback]{})
		s.known = append(s.known, false)
	}
	if !s.known[source] {
		s.known[source] = true
		s.sources = append(s.sources, source)
	}
	return &s.queues[source]
}

// Acquire requests a slot for the given source. granted(arg) runs as
// soon as a slot is available — synchronously when one is free now,
// otherwise when a Release hands one over in queue order. Either way
// it may run inside another callback (Release grants synchronously),
// so a callback takes what it needs from its own argument.
func (s *Semaphore) Acquire(source int, granted func(int32), arg int32) {
	s.accumulate()
	if s.held < s.capacity {
		s.held++
		granted(arg)
		return
	}
	s.queueFor(source).push(callback{granted, arg})
	s.queued++
}

// Release returns a slot to the pool, granting it to the next waiter
// if any. Releasing more slots than were acquired panics: it is always
// a modelling bug.
func (s *Semaphore) Release() {
	s.accumulate()
	if s.held <= 0 {
		panic(fmt.Sprintf("sim: semaphore %q released more slots than acquired", s.name))
	}
	next, ok := s.nextWaiter()
	if !ok {
		s.held--
		return
	}
	s.queued--
	next.fn(next.arg)
}

// nextWaiter pops the head of the next non-empty source queue in
// round-robin order.
func (s *Semaphore) nextWaiter() (callback, bool) {
	for range s.sources {
		src := s.sources[s.rrNext%len(s.sources)]
		s.rrNext++
		if w, ok := s.queues[src].pop(); ok {
			return w, true
		}
	}
	return callback{}, false
}

func (s *Semaphore) accumulate() {
	now := s.eng.Now()
	if d := now - s.lastUpdate; d > 0 {
		s.areaHeld += d * float64(s.held)
		s.areaQueued += d * float64(s.queued)
	}
	s.lastUpdate = now
}

// ResetStats zeroes the pool's time-weighted statistics.
func (s *Semaphore) ResetStats() {
	s.accumulate()
	s.statsSince = s.eng.Now()
	s.areaHeld = 0
	s.areaQueued = 0
}

// MeanHeld returns the time-average number of held slots since the
// last stats reset.
func (s *Semaphore) MeanHeld() float64 {
	s.accumulate()
	if d := s.eng.Now() - s.statsSince; d > 0 {
		return s.areaHeld / d
	}
	return 0
}

// MeanQueued returns the time-average number of waiting acquisitions
// since the last stats reset.
func (s *Semaphore) MeanQueued() float64 {
	s.accumulate()
	if d := s.eng.Now() - s.statsSince; d > 0 {
		return s.areaQueued / d
	}
	return 0
}
