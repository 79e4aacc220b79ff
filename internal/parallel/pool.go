package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The wait budgets. A goroutine waiting at the barrier first re-reads
// the atomic it waits on spinLoads times, then alternates that check
// with runtime.Gosched for at most yieldBudget of host time, and only
// then parks. The budget is a measurement, not a knob (sweep on the
// 2-core box in DESIGN.md, "Sharded simulation engine"): parking at
// once is slower than the channel pool this one replaced, 200 µs to
// 5 ms are level, and never parking costs memory — a goroutine that
// yields forever keeps its P busy, so the idle-priority GC workers
// never run and a worker sits on a core through its owner's serial
// set-up.
const (
	spinLoads   = 128
	yieldBudget = time.Millisecond
)

// Pool is a persistent barrier for repeated fan-out over a fixed set of
// slots: Run executes fn(slot) for every slot and returns when all have
// finished. Map spins up fresh goroutines per call, which is fine for
// experiment sweeps (thousands of cells, one fan-out) but far too heavy
// for the sharded simulator's coordinator, which fans the same shard
// set out once per synchronisation window — millions of times per run,
// each window a few hundred microseconds of work. At that grain the
// cost that matters is not the hand-off but the sleep: a goroutine
// that blocks puts its OS thread to sleep, and waking it takes tens to
// hundreds of microseconds. So the pool is built to keep its cores
// awake for as long as Runs keep coming:
//
//   - The caller works. Run executes slot 0 itself, then claims
//     further slots from the same atomic cursor its workers claim from.
//     There are min(n, GOMAXPROCS) − 1 workers, so caller and workers
//     never outnumber the processors: with more slots than processors
//     the extra slots are claimed by whoever is free, and on one
//     processor (or with one slot) there are no workers at all and Run
//     is a plain loop over the slots in index order.
//   - Nobody sleeps mid-run. A worker waiting for the next Run and the
//     caller waiting for the last slot both spin, then yield, then park
//     (see spinLoads and yieldBudget). Parking is two-phase — announce,
//     re-check the condition, sleep — and a waker sends the one token
//     only if it saw the announcement, so no wake-up is lost.
//
// Which goroutine runs which slot is free to vary from Run to Run, so
// fn must keep a slot's state private to the slot; everything fn(s)
// wrote is visible to whoever runs s next and to the caller after Run.
// The function is fixed at construction, so callers communicate
// per-Run inputs through state the function reads. Run must not be
// called concurrently with itself.
type Pool struct {
	n  int
	fn func(slot int)

	spin  int           // spinLoads, or a test's override
	yield time.Duration // yieldBudget, or a test's override

	workers []parker
	exited  sync.WaitGroup
	closed  atomic.Bool

	// cursor is the next unclaimed slot of the current Run, >= n when
	// none is left; pending counts its unfinished slots. Run stores
	// pending before it resets cursor, so a claim can only succeed
	// against a pending count that already includes it. Each has a
	// cache line of its own: cursor is written by every claim and
	// polled by waiting workers, pending is written by every finished
	// slot and polled by the waiting caller.
	_       [64]byte
	cursor  atomic.Int32
	_       [60]byte
	pending atomic.Int32
	_       [60]byte
	caller  parker

	runs, callerSlots uint64 // written by Run's goroutine only
	parks             atomic.Uint64
}

// PoolStats counts what a Pool has done so far. CallerSlots ≥ Runs
// always; Parks is the one number that depends on the host — how often
// a wait outlasted its budget and a goroutine really went to sleep.
type PoolStats struct {
	Runs        uint64 // Run calls
	CallerSlots uint64 // slots executed on Run's own goroutine
	Parks       uint64 // waits that ended in a park
}

// parker is one goroutine's place to sleep.
type parker struct {
	state atomic.Int32  // awake or parked
	token chan struct{} // holds at most the one wake-up a parked state earns
	_     [48]byte      // a line of its own: wakers poll state
}

const (
	awake int32 = iota
	parked
)

// wake releases the parker's goroutine if it has announced a park.
func (k *parker) wake() {
	if k.state.Load() == parked && k.state.CompareAndSwap(parked, awake) {
		k.token <- struct{}{}
	}
}

// NewPool builds a pool of n slots running fn on at most goroutines
// goroutines, the caller included: it starts
// min(n, goroutines, GOMAXPROCS) − 1 workers, so more slots than
// goroutines are claimed one after another by whoever is free.
// GOMAXPROCS is read here, once.
func NewPool(n, goroutines int, fn func(slot int)) *Pool {
	return newPool(n, min(n, goroutines, runtime.GOMAXPROCS(0))-1, spinLoads, yieldBudget, fn)
}

func newPool(n, workers, spin int, yield time.Duration, fn func(slot int)) *Pool {
	p := &Pool{n: n, fn: fn, spin: spin, yield: yield}
	if workers <= 0 {
		return p
	}
	p.cursor.Store(int32(n))
	p.caller.token = make(chan struct{}, 1)
	p.workers = make([]parker, workers)
	p.exited.Add(workers)
	for i := range p.workers {
		k := &p.workers[i]
		k.token = make(chan struct{}, 1)
		go func() {
			defer p.exited.Done()
			for {
				p.wait(k)
				if p.closed.Load() {
					return
				}
				p.claim()
			}
		}()
	}
	return p
}

// Run executes fn(slot) for every slot in [0, n), returning when all
// have completed. The caller must not invoke Run again until it
// returns.
func (p *Pool) Run() {
	p.runs++
	if p.workers == nil {
		for s := 0; s < p.n; s++ {
			p.fn(s)
		}
		p.callerSlots += uint64(p.n)
		return
	}
	p.pending.Store(int32(p.n))
	p.cursor.Store(1) // slot 0 is the caller's
	for i := range p.workers {
		p.workers[i].wake()
	}
	p.fn(0)
	p.pending.Add(-1)
	p.callerSlots += 1 + uint64(p.claim())
	p.wait(&p.caller)
}

// claim runs unclaimed slots until none is left and returns how many
// it ran. Whoever finishes the Run's last slot wakes the caller.
func (p *Pool) claim() (ran int) {
	for {
		s := int(p.cursor.Add(1)) - 1
		if s >= p.n {
			return ran
		}
		p.fn(s)
		ran++
		if p.pending.Add(-1) == 0 {
			p.caller.wake()
		}
	}
}

// ready reports whether what k's goroutine waits for has come: for the
// caller that no slot of the Run is pending, for a worker that there is
// a slot to claim or the pool is closed.
func (p *Pool) ready(k *parker) bool {
	if k == &p.caller {
		return p.pending.Load() == 0
	}
	return p.cursor.Load() < int32(p.n) || p.closed.Load()
}

// wait returns once k's goroutine has what it waits for: spin, yield,
// park. A parked goroutine that wakes to find nothing to do (another
// claimant was quicker) starts over from the spin, because a wake-up
// means Runs are coming again.
func (p *Pool) wait(k *parker) {
	for {
		for i := 0; i < p.spin; i++ {
			if p.ready(k) {
				return
			}
		}
		for start := time.Now(); time.Since(start) < p.yield; runtime.Gosched() {
			if p.ready(k) {
				return
			}
		}
		k.state.Store(parked)
		if p.ready(k) {
			if !k.state.CompareAndSwap(parked, awake) {
				<-k.token // a waker saw "parked": take the token it owes
			}
			return
		}
		p.parks.Add(1)
		<-k.token
	}
}

// Stats returns the pool's counters. Like Run, it belongs to the
// goroutine that owns the pool.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Runs: p.runs, CallerSlots: p.callerSlots, Parks: p.parks.Load()}
}

// Close stops the pool's workers and returns when they have exited.
// The pool must be idle. Close is idempotent; Run must not be called
// after Close.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	for i := range p.workers {
		p.workers[i].wake()
	}
	p.exited.Wait()
}
