package serve

import (
	"cmp"
	"context"
	"slices"
	"strings"
	"sync"

	"perfpred/internal/lqn"
	"perfpred/internal/sessioncache"
	"perfpred/internal/sla"
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

// keyState is a worker-owned warm solving context for one
// (architecture, mix): the trade model built once plus a retained
// warm-started Solver whose cached resolution and previous queue
// lengths every solve in a batch reuses.
type keyState struct {
	model   *lqn.Model
	solver  *lqn.Solver
	buyFrac float64
}

// meanRT solves the model at a total population of n, split across the
// mix's classes, counts the solve, and returns the request-weighted
// mean response time.
func (st *keyState) meanRT(solver *lqn.Solver, n int, opt lqn.Options) (float64, error) {
	for i, p := range workload.MixLoad(n, st.buyFrac) {
		st.model.Classes[i].Population = p.Clients
	}
	res, err := solver.Solve(st.model, opt)
	if err != nil {
		return 0, err
	}
	metrics.Load().batchSolves.Inc()
	return res.MeanResponseTime(), nil
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
	queue    chan *solveJob
	maxBatch int
	opt      lqn.Options

	makeState func(modelKey) (*keyState, error)

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

func newBatcher(workers, queueCap, maxBatch int, opt lqn.Options, makeState func(modelKey) (*keyState, error)) *batcher {
	b := &batcher{
		queue:     make(chan *solveJob, queueCap),
		maxBatch:  maxBatch,
		opt:       opt,
		makeState: makeState,
	}
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
	states := sessioncache.NewLRU[modelKey, *keyState](32)
	batch := make([]*solveJob, 0, b.maxBatch)
	for first := range b.queue {
		batch = append(batch[:0], first)
		// Opportunistic drain: everything already queued joins this
		// batch (up to maxBatch) and will share sorted warm sweeps.
		for len(batch) < b.maxBatch {
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
			job.resp <- b.run(states, job)
		}
	}
}

// run executes one job on the worker's warm state for its key.
func (b *batcher) run(states *sessioncache.LRU[modelKey, *keyState], job *solveJob) solveOut {
	if err := job.ctx.Err(); err != nil {
		// The caller's deadline passed while the job sat in the queue;
		// skip the solve rather than burning a worker on a dead request.
		metrics.Load().deadlineExpired.Inc()
		return solveOut{err: err}
	}
	st, ok := states.Get(job.key)
	if !ok {
		var err error
		if st, err = b.makeState(job.key); err != nil {
			return solveOut{err: err}
		}
		states.Put(job.key, st)
	}
	if job.goalRT > 0 {
		n, evals, err := b.capacitySearch(st, job.goalRT)
		return solveOut{n: n, evals: evals, err: err}
	}
	rt, err := st.meanRT(st.solver, job.n, b.opt)
	return solveOut{rt: rt, err: err}
}

// capacitySearch is the §8.2 client-count search generalised to a
// fixed mix: the layered model cannot be inverted, so it probes total
// populations (the mix split at each probe exactly as the RT path
// splits it) until the request-weighted mean response time breaks the
// goal, then bisects. It deliberately runs on a fresh warm-started
// solver with the shared search's fixed probe sequence, so a capacity
// answer never depends on what the worker happened to solve before it,
// and an offline rerun of the same query reproduces the served number
// exactly.
func (b *batcher) capacitySearch(st *keyState, goalRT float64) (clients, evals int, err error) {
	solver := lqn.NewSolver()
	solver.WarmStart = true
	clients, err = sla.MaxClients(1<<20, func(n int) (bool, error) {
		rt, err := st.meanRT(solver, n, b.opt)
		evals++
		return rt <= goalRT, err
	})
	return clients, evals, err
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
