package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// refStation is the three-pass processor-sharing station the one-pass
// Station replaced, kept as the reference its results must equal bit
// for bit: a pointer per job, one walk to charge service, one to
// partition, one to find the minimum, and a fresh event per move: the
// superseded completion still fires, but finds its version stale and
// does nothing, so the real completions fire in the order, and draw the
// sequence numbers, that cancelling the old event would give.
type refJob struct {
	remaining float64
	done      func(int32)
	arg       int32
}

type refStation struct {
	eng     *Engine
	speed   float64
	active  []*refJob
	last    float64
	version uint64 // of the live completion; older ones are superseded
}

func (s *refStation) update() {
	elapsed := s.eng.Now() - s.last
	if n := len(s.active); elapsed > 0 && n > 0 {
		perJob := elapsed * s.speed / float64(n)
		for _, j := range s.active {
			j.remaining -= perJob
		}
	}
	s.last = s.eng.Now()
}

func (s *refStation) scheduleNext() {
	s.version++
	if len(s.active) == 0 {
		return
	}
	minRemaining := math.Inf(1)
	for _, j := range s.active {
		if j.remaining < minRemaining {
			minRemaining = j.remaining
		}
	}
	if minRemaining < 0 {
		minRemaining = 0
	}
	v := s.version
	s.eng.Schedule(minRemaining*float64(len(s.active))/s.speed, func() {
		if v == s.version {
			s.onCompletion()
		}
	})
}

func (s *refStation) submit(demand float64, done func(int32), arg int32) {
	s.update()
	s.active = append(s.active, &refJob{remaining: demand, done: done, arg: arg})
	s.scheduleNext()
}

func (s *refStation) onCompletion() {
	s.update()
	var finished, kept []*refJob
	for _, j := range s.active {
		if j.remaining <= remainEps {
			finished = append(finished, j)
		} else {
			kept = append(kept, j)
		}
	}
	s.active = kept
	s.scheduleNext()
	for _, j := range finished {
		j.done(j.arg)
	}
}

// The one-pass station must reproduce the three-pass reference's
// completion times exactly — math.Float64bits equality, not a
// tolerance — over random submit sequences with simultaneous arrivals
// and completions, zero demands and resubmits from callbacks, on both
// scheduler backends. Bit-identity of every seeded run in the
// repository rests on this.
func TestStationFusedMatchesReference(t *testing.T) {
	type completion struct {
		id int
		at uint64
	}
	// drive runs one script against a submit function and returns the
	// completions in callback order. Every job shares one callback and
	// is told apart by its argument, its id.
	drive := func(e *Engine, submit func(demand float64, done func(int32), arg int32), seed int64, n int) []completion {
		rng := NewStream(seed)
		var out []completion
		var resubmit []bool // by job id
		var arrive func()
		done := func(id int32) {
			out = append(out, completion{int(id), math.Float64bits(e.Now())})
			if resubmit[id] && len(resubmit) < n {
				arrive()
			}
		}
		arrive = func() {
			// Demands from a small set, so that jobs submitted together
			// finish together and zero demands occur.
			demand := float64(rng.Intn(4)) / 2
			if rng.Float64() < 0.4 {
				demand = rng.Exp(1)
			}
			resubmit = append(resubmit, rng.Float64() < 0.2)
			submit(demand, done, int32(len(resubmit)-1))
		}
		for i := 0; i < n/2; i++ {
			// Arrivals on a coarse grid (simultaneous submits) or spread.
			at := float64(rng.Intn(40)) / 4
			if rng.Float64() < 0.5 {
				at = rng.Exp(5)
			}
			e.Schedule(at, arrive)
		}
		e.Run(math.Inf(1), 0)
		return out
	}
	f := func(seed int64, rawSpeed, nRaw uint8) bool {
		speed := 0.5 + float64(rawSpeed%6)/2
		n := int(nRaw)%120 + 10
		re := NewEngine()
		ref := &refStation{eng: re, speed: speed}
		want := drive(re, ref.submit, seed, n)
		for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
			e := mk()
			st := NewStation(e, "fused", speed)
			got := drive(e, st.Submit, seed, n)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			if e.nextSq != re.nextSq {
				return false // reschedule must consume what a fresh Schedule did
			}
		}
		return len(want) >= n/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A full service cycle at a busy server — thread grant, Submit, the
// completion event, the callback, the release that grants a waiter —
// is the innermost loop of every simulated measurement and must not
// allocate on either backend. The composition is the one trade builds:
// a Semaphore holding the multiprogramming limit in front of the CPU.
func TestStationCycleAllocatesNothing(t *testing.T) {
	for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
		e := mk()
		threads := NewSemaphore(e, "threads", 4)
		s := NewStation(e, "cpu", 1)
		rng := NewStream(9)
		done := func(int32) { threads.Release() }
		granted := func(int32) { s.Submit(rng.Exp(0.01), done, 0) }
		cycle := func() {
			for i := 0; i < 8; i++ { // past the limit, so the queues work too
				threads.Acquire(i%3, granted, 0)
			}
			e.Run(e.Now()+1, 0)
		}
		cycle() // fill the waiter rings, job slices and event pool
		if a := testing.AllocsPerRun(200, cycle); a != 0 {
			t.Fatalf("station cycle allocated %v times per run", a)
		}
		if s.InService() != 0 || threads.Held() != 0 || threads.Queued() != 0 {
			t.Fatalf("server not drained: %d in service, %d threads held, %d queued", s.InService(), threads.Held(), threads.Queued())
		}
	}
}

// FuzzStationMatchesReference drives the three-pass reference and the
// Station, on both backends, with one script read from the fuzzer's
// bytes and requires the same completions, each at the same time to
// the bit, in the same callback order, and the same sequence numbers
// consumed. The first byte sets the speed; each following triple is a
// job: its arrival on a 1/16 grid (equal bytes arrive together), its
// demand from {0, ½, 1, 1½} or a finer decimal grid, and whether its
// callback submits one more job.
func FuzzStationMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 0, 2, 0, 0, 1, 4})
	f.Add([]byte{3, 16, 1, 6, 16, 1, 6, 16, 1, 6, 8, 20, 2})
	f.Add([]byte{5, 0, 10, 0, 0, 10, 0, 0, 10, 0, 1, 1, 3, 2, 7, 255, 9, 77, 14})
	type completion struct {
		id int
		at uint64
	}
	const maxJobs = 256
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 4 {
			return
		}
		speed := 0.5 + float64(script[0]%6)/2
		jobs := script[1:]
		if len(jobs) > 3*maxJobs {
			jobs = jobs[:3*maxJobs]
		}
		drive := func(e *Engine, submit func(demand float64, done func(int32), arg int32)) []completion {
			var out []completion
			id := 0
			job := func(demand float64, then func()) func() {
				return func() {
					myID := id
					id++
					submit(demand, func(arg int32) {
						out = append(out, completion{int(arg), math.Float64bits(e.Now())})
						if then != nil {
							then()
						}
					}, int32(myID))
				}
			}
			for i := 0; i+3 <= len(jobs); i += 3 {
				at, d, flags := jobs[i], jobs[i+1], jobs[i+2]
				demand := float64(d%4) / 2
				if flags&1 != 0 {
					demand = float64(d) / 10
				}
				var then func()
				if flags&2 != 0 {
					then = job(float64(flags>>2)/7, nil)
				}
				e.Schedule(float64(at)/16, job(demand, then))
			}
			e.Run(math.Inf(1), 0)
			return out
		}
		re := NewEngine()
		ref := &refStation{eng: re, speed: speed}
		want := drive(re, ref.submit)
		for _, mk := range []func() *Engine{NewEngine, NewEngineCalendar} {
			e := mk()
			st := NewStation(e, "fuzz", speed)
			got := drive(e, st.Submit)
			if !slices.Equal(got, want) {
				t.Fatalf("speed %v: completions (id, time bits)\n got %v\nwant %v", speed, got, want)
			}
			if e.nextSq != re.nextSq {
				t.Fatalf("speed %v: %d sequence numbers consumed, reference %d", speed, e.nextSq, re.nextSq)
			}
		}
	})
}
