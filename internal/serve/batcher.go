package serve

import (
	"cmp"
	"context"
	"slices"
	"strings"
	"sync"

	"perfpred/internal/lqn"
	"perfpred/internal/sessioncache"
	"perfpred/internal/workload"
)

// solveJob is one queued layered-solver request: the mean response
// time at population n, or — when goalRT is positive — the max clients
// under that goal (§8.2 search). The response channel is buffered so a
// worker's send never blocks on a caller that gave up waiting (deadline
// expiry leaves the job to complete harmlessly).
type solveJob struct {
	key    modelKey
	n      int     // population
	goalRT float64 // seconds
	ctx    context.Context
	resp   chan solveOut
}

type solveOut struct {
	rt    float64 // mean response time at n
	n     int     // max clients under goalRT
	evals int     // solves the capacity search spent
	err   error
}

// batcher turns the service's exact layered-queuing queries into
// warm-start sweeps. Requests land in one bounded queue; each worker
// drains a batch, groups it by (architecture, mix) and sorts each
// group by population, then runs the group on a single warm-started
// solver — adjacent-population solves collapse into a sweep (PR 2
// measured ~11% fewer MVA iterations per step, and the model
// resolution is paid once) instead of N cold solves. A full queue
// rejects instantly with ErrOverloaded: the overload regime costs a
// channel send attempt, not a convoy.
type batcher struct {
	queue chan *solveJob

	// makeSweep builds a worker's warm solving context for one
	// (architecture, mix): the key's trade model on a retained
	// warm-started solver that every solve in a batch reuses.
	makeSweep func(modelKey) (*lqn.TradeSweep, error)

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

func newBatcher(workers int, makeSweep func(modelKey) (*lqn.TradeSweep, error)) *batcher {
	b := &batcher{queue: make(chan *solveJob, maxQueuedSolves), makeSweep: makeSweep}
	for i := 0; i < workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}
	return b
}

// submit enqueues a job, rejecting with ErrOverloaded when the queue
// is full. It never blocks.
func (b *batcher) submit(j *solveJob) error {
	m := metrics.Load()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrShuttingDown
	}
	select {
	case b.queue <- j:
		depth := int64(len(b.queue))
		b.mu.Unlock()
		m.solveQueueDepth.Set(depth)
		m.solveQueueHigh.Observe(depth)
		return nil
	default:
		b.mu.Unlock()
		m.rejectedOverload.Inc()
		return ErrOverloaded
	}
}

// close stops the workers after the queue drains, so every accepted
// job still gets an answer — the graceful-shutdown half of the drain
// contract.
func (b *batcher) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
	b.mu.Unlock()
	b.wg.Wait()
}

func (b *batcher) worker() {
	defer b.wg.Done()
	// Worker-owned solver states, bounded so a key churn cannot pin
	// unbounded models: least-recently-solved keys drop their workspace
	// and rebuild on next use.
	sweeps := sessioncache.NewLRU[modelKey, *lqn.TradeSweep](32)
	batch := make([]*solveJob, 0, maxBatch)
	for first := range b.queue {
		batch = append(batch[:0], first)
		// Opportunistic drain: everything already queued joins this
		// batch (up to maxBatch) and will share sorted warm sweeps.
		for len(batch) < maxBatch {
			j, ok := tryRecv(b.queue)
			if !ok {
				break
			}
			batch = append(batch, j)
		}
		m := metrics.Load()
		m.solveQueueDepth.Set(int64(len(b.queue)))
		m.batchSize.Observe(float64(len(batch)))

		// Group by key, ascending population within a key: each
		// group becomes one warm-start sweep.
		slices.SortStableFunc(batch, func(a, b *solveJob) int {
			return cmp.Or(strings.Compare(a.key.arch, b.key.arch),
				cmp.Compare(a.key.buyPctTenth, b.key.buyPctTenth), cmp.Compare(a.n, b.n))
		})
		for _, job := range batch {
			job.resp <- b.run(sweeps, job)
		}
	}
}

// run executes one job on the worker's warm sweep for its key. A
// capacity job is the §8.2 search generalised to a fixed mix (each probe
// splits its total population exactly as the RT path does); the sweep
// runs it on a fresh solver, so the answer never depends on what the
// worker happened to solve before it.
func (b *batcher) run(sweeps *sessioncache.LRU[modelKey, *lqn.TradeSweep], job *solveJob) solveOut {
	m := metrics.Load()
	if err := job.ctx.Err(); err != nil {
		// The caller's deadline passed while the job sat in the queue;
		// skip the solve rather than burning a worker on a dead request.
		m.deadlineExpired.Inc()
		return solveOut{err: err}
	}
	sw, ok := sweeps.Get(job.key)
	if !ok {
		var err error
		if sw, err = b.makeSweep(job.key); err != nil {
			return solveOut{err: err}
		}
		sweeps.Put(job.key, sw)
	}
	buyFrac := job.key.buyFrac()
	if job.goalRT > 0 {
		n, evals, err := sw.MaxClients(job.goalRT, maxSolveClients, func(n int) workload.Workload {
			return workload.MixLoad(n, buyFrac)
		})
		m.batchSolves.Add(uint64(evals))
		return solveOut{n: n, evals: evals, err: err}
	}
	res, err := sw.Solve(workload.MixLoad(job.n, buyFrac))
	if err != nil {
		return solveOut{err: err}
	}
	m.batchSolves.Inc()
	return solveOut{rt: res.MeanResponseTime()}
}

// tryRecv is a non-blocking receive that also tolerates a closed
// queue.
func tryRecv(q chan *solveJob) (*solveJob, bool) {
	select {
	case j, ok := <-q:
		return j, ok
	default:
		return nil, false
	}
}
