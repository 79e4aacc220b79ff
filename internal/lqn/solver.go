package lqn

import (
	"fmt"
	"sort"
	"time"

	"perfpred/internal/obs"
)

// Solver is a reusable solver workspace. A zero Solver is ready to
// use; NewSolver is the self-documenting constructor.
//
// Against the one-shot package-level Solve, a retained Solver adds
// three fast paths for *sequences* of related solves — the sweeps,
// calibrations and fixed-point loops that dominate the paper's §8.5
// prediction-delay cost:
//
//   - cached model resolution: topology validation, visit-ratio
//     chaining and demand folding run once per model identity (the
//     *Model pointer), so a sweep that only varies populations, think
//     times, priorities or arrival rates skips straight to the MVA
//     kernel;
//   - a flat, reusable MVA workspace: steady-state solves on a
//     same-shaped model perform zero heap allocations;
//   - warm starts (opt-in via WarmStart): each converged solve seeds
//     the next one's queue-length iterate, collapsing adjacent-
//     population solves to a few sweeps.
//
// Mutating a model's structure — tasks, entries, calls, the set of
// classes, or a class switching between open and closed — between
// solves on the same pointer requires Reset (or a fresh Solver).
// Changing entry demands or call means in place (see retuneTradeModel)
// requires invalidateDemands. Population, Think, ArrivalRate and
// Priority edits need nothing: they are re-read on every solve.
//
// The returned *Result is owned by the Solver and overwritten by the
// next Solve call; Clone it to retain. A Solver must not be used from
// multiple goroutines concurrently.
type Solver struct {
	// WarmStart seeds the Schweitzer iteration from the previous
	// converged solution whenever the network shape matches, instead
	// of the cold uniform spread. The fixed point — and therefore the
	// solution, up to the convergence tolerance — is unchanged; the
	// iteration count drops sharply on adjacent-population sweeps.
	WarmStart bool

	model *Model
	res   *resolved
	plan  *solvePlan

	ws  mvaWorkspace
	out Result
}

// NewSolver returns an empty solver workspace.
func NewSolver() *Solver { return &Solver{} }

// solvePlan caches everything derivable from the model's structure:
// the open/closed class split, per-class per-processor demands, and
// the flattened station matrices the MVA kernel consumes. Populations,
// think times, priorities and arrival rates are deliberately absent —
// they are re-read on every solve, which is what makes grid sweeps
// cheap.
type solvePlan struct {
	closed []*Class
	open   []*Class
	isOpen []bool // aligned with Model.Classes; detects open/closed flips

	demandsOf map[string]classDemands

	// Stations in deterministic (sorted processor name) order, with
	// the per-class demand matrices flattened at stride K = len(closed).
	procNames  []string
	stQueueing []bool
	stServers  []int
	stDemand   []float64 // I×K caller-visible demand
	stExtra    []float64 // I×K non-response (phase-2/async) demand
}

// Reset forgets all cached state, including the warm-start seed. Call
// it after mutating a model's structure in place.
func (s *Solver) Reset() {
	s.model, s.res, s.plan = nil, nil, nil
	s.ws.invalidateWarm()
}

// invalidateDemands drops the cached demand folding — visit ratios and
// station demand matrices — while keeping the validated topology. Call
// it after changing entry demands or call means in place (e.g. via
// retuneTradeModel); it is what makes fixed-point loops that re-tune
// demands every iteration cheap.
func (s *Solver) invalidateDemands() { s.plan = nil }

// prepare ensures the cached resolution and plan match the model.
func (s *Solver) prepare(m *Model) error {
	if s.model != m {
		r, err := m.resolve()
		if err != nil {
			return err
		}
		s.model, s.res, s.plan = m, r, nil
	}
	if s.plan != nil {
		// A class flipping between open and closed changes the network
		// shape; rebuild rather than mis-solve.
		for c, cl := range m.Classes {
			if cl.open() != s.plan.isOpen[c] {
				s.plan = nil
				break
			}
		}
	}
	if s.plan == nil {
		s.plan = buildPlan(m, s.res)
		s.rebuildResult()
	}
	return nil
}

// buildPlan folds the resolved model into the solver's flat form.
func buildPlan(m *Model, r *resolved) *solvePlan {
	p := &solvePlan{
		isOpen:    make([]bool, len(m.Classes)),
		demandsOf: make(map[string]classDemands, len(m.Classes)),
	}
	for c, cl := range m.Classes {
		p.isOpen[c] = cl.open()
		if cl.open() {
			p.open = append(p.open, cl)
		} else {
			p.closed = append(p.closed, cl)
		}
		p.demandsOf[cl.Name] = processorDemands(r, visitRatios(r, cl))
	}

	p.procNames = make([]string, 0, len(m.Processors))
	for _, proc := range m.Processors {
		p.procNames = append(p.procNames, proc.Name)
	}
	sort.Strings(p.procNames)

	K := len(p.closed)
	I := len(p.procNames)
	p.stQueueing = make([]bool, I)
	p.stServers = make([]int, I)
	p.stDemand = make([]float64, I*K)
	p.stExtra = make([]float64, I*K)
	for i, name := range p.procNames {
		proc := r.processors[name]
		p.stQueueing[i] = proc.Sched != Delay
		p.stServers[i] = proc.Mult
		for k, cl := range p.closed {
			d := p.demandsOf[cl.Name]
			p.stDemand[i*K+k] = d.resp[name]
			p.stExtra[i*K+k] = d.util[name] - d.resp[name]
		}
	}
	return p
}

// rebuildResult re-allocates the reused Result's maps for the current
// plan. On plan cache hits the key sets are identical, so Solve just
// overwrites values — zero allocations.
func (s *Solver) rebuildResult() {
	p := s.plan
	s.out.Classes = make(map[string]ClassResult, len(p.closed)+len(p.open))
	s.out.order = classOrder(s.model)
	s.out.ProcessorUtil = make(map[string]float64, len(p.procNames))
	s.out.ClassProcessorUtil = make(map[string]map[string]float64, len(p.procNames))
	for _, name := range p.procNames {
		s.out.ClassProcessorUtil[name] = make(map[string]float64, len(p.closed)+len(p.open))
	}
}

// Solve evaluates the model and returns steady-state predictions. The
// result is owned by the Solver and overwritten by the next call;
// Clone it to retain across solves.
func (s *Solver) Solve(m *Model, opt Options) (*Result, error) {
	start := time.Now()
	if err := s.prepare(m); err != nil {
		return nil, err
	}
	if opt.TaskLayering {
		// The layered fixed point keeps its own state; it shares the
		// cached resolution but not the MVA workspace.
		s.ws.invalidateWarm()
		res, err := solveLayered(m, s.res, opt)
		if err != nil {
			return nil, err
		}
		res.SolveTime = time.Since(start)
		recordSolve(res.Iterations, res.Converged, false, false)
		return res, nil
	}

	p := s.plan
	ws := &s.ws
	K := len(p.closed)
	I := len(p.procNames)

	// Per-solve parameters: the knobs a sweep is allowed to turn.
	ws.pop = growI(ws.pop, K)
	ws.think = growF(ws.think, K)
	ws.prio = growI(ws.prio, K)
	for k, cl := range p.closed {
		if cl.Population < 0 {
			return nil, fmt.Errorf("lqn: class %q has negative population", cl.Name)
		}
		if cl.Think < 0 {
			return nil, fmt.Errorf("lqn: class %q has negative think time", cl.Name)
		}
		ws.pop[k], ws.think[k], ws.prio[k] = cl.Population, cl.Think, cl.Priority
	}

	// Open-class utilisation per station; validates stability.
	ws.openUtil = growF(ws.openUtil, I)
	for i := range ws.openUtil {
		ws.openUtil[i] = 0
	}
	for _, cl := range p.open {
		if cl.ArrivalRate < 0 {
			return nil, fmt.Errorf("lqn: class %q has negative arrival rate", cl.Name)
		}
		d := p.demandsOf[cl.Name]
		for i, name := range p.procNames {
			if !p.stQueueing[i] {
				continue
			}
			ws.openUtil[i] += cl.ArrivalRate * d.util[name] / float64(p.stServers[i])
		}
	}
	for i, name := range p.procNames {
		if ws.openUtil[i] >= 1 {
			return nil, fmt.Errorf("lqn: open classes saturate processor %q (utilisation %.3f)", name, ws.openUtil[i])
		}
	}

	warmEligible := false
	switch {
	case K == 0:
		// Purely open model: no closed iteration needed.
		ws.q = growF(ws.q, 0)
		ws.U = growF(ws.U, I)
		copy(ws.U, ws.openUtil)
		ws.iterations, ws.converged, ws.usedWarm = 0, true, false
		ws.invalidateWarm()
	case opt.ExactMVA:
		if err := p.exactApplicable(ws); err != nil {
			return nil, err
		}
		if err := ws.solveExact(p); err != nil {
			return nil, err
		}
	default:
		warmEligible = s.WarmStart
		if err := ws.solveSchweitzer(p, opt.Convergence, opt.MaxIterations, s.WarmStart); err != nil {
			return nil, err
		}
	}

	out := &s.out
	out.Iterations, out.Converged = ws.iterations, ws.converged
	for k, cl := range p.closed {
		out.Classes[cl.Name] = ClassResult{ResponseTime: ws.R[k], Throughput: ws.X[k]}
	}

	// Open-class response times by the standard mixed-network
	// approximation: the arriving open request sees the closed queue
	// on top of the open load.
	if len(p.open) > 0 {
		ws.closedQ = growF(ws.closedQ, I)
		for i := 0; i < I; i++ {
			var total float64
			for k := 0; k < K; k++ {
				total += ws.q[i*K+k]
			}
			ws.closedQ[i] = total
		}
		for _, cl := range p.open {
			d := p.demandsOf[cl.Name]
			var rt float64
			for i, name := range p.procNames {
				dr := d.resp[name]
				if dr == 0 {
					continue
				}
				if !p.stQueueing[i] {
					rt += dr
					continue
				}
				c := float64(p.stServers[i])
				queueing := dr / c
				residual := dr * (c - 1) / c
				rt += queueing*(1+ws.closedQ[i])/(1-ws.openUtil[i]) + residual
			}
			out.Classes[cl.Name] = ClassResult{ResponseTime: rt, Throughput: cl.ArrivalRate}
		}
	}

	for i, name := range p.procNames {
		out.ProcessorUtil[name] = ws.U[i]
		per := out.ClassProcessorUtil[name]
		for k, cl := range p.closed {
			per[cl.Name] = ws.X[k] * (p.stDemand[i*K+k] + p.stExtra[i*K+k]) / float64(p.stServers[i])
		}
		for _, cl := range p.open {
			d := p.demandsOf[cl.Name]
			per[cl.Name] = cl.ArrivalRate * d.util[name] / float64(p.stServers[i])
		}
	}
	out.SolveTime = time.Since(start)
	recordSolve(ws.iterations, ws.converged, warmEligible, ws.usedWarm)
	return out, nil
}

// The solver's counters are process-wide rather than per-Solver:
// solvers are created freely inside sweeps and fixed-point loops, and
// the interesting totals are the process's.
var (
	lqnSolverSolves              = obs.DeclareCounter("lqn_solver_solves")               // completed Solve calls (all paths)
	lqnSolverMVAIterations       = obs.DeclareCounter("lqn_solver_mva_iterations")       // MVA sweeps (Schweitzer) / recursion steps (exact)
	lqnSolverWarmHits            = obs.DeclareCounter("lqn_solver_warm_hits")            // Schweitzer solves seeded from a warm iterate
	lqnSolverWarmMisses          = obs.DeclareCounter("lqn_solver_warm_misses")          // warm-start-enabled solves that started cold
	lqnSolverConvergenceFailures = obs.DeclareCounter("lqn_solver_convergence_failures") // solves that hit the iteration cap unconverged
)

// recordSolve publishes one completed solve. warmEligible is true only
// for warm-start-enabled Schweitzer solves, the one path where hit/miss
// is meaningful.
func recordSolve(iterations int, converged, warmEligible, usedWarm bool) {
	lqnSolverSolves.Inc()
	lqnSolverMVAIterations.Add(uint64(iterations))
	if !converged {
		lqnSolverConvergenceFailures.Inc()
	}
	if warmEligible {
		if usedWarm {
			lqnSolverWarmHits.Inc()
		} else {
			lqnSolverWarmMisses.Inc()
		}
	}
}

// Clone returns a deep copy of the result, detached from any reusing
// Solver.
func (r *Result) Clone() *Result {
	out := *r
	out.Classes = make(map[string]ClassResult, len(r.Classes))
	for k, v := range r.Classes {
		out.Classes[k] = v
	}
	out.ProcessorUtil = make(map[string]float64, len(r.ProcessorUtil))
	for k, v := range r.ProcessorUtil {
		out.ProcessorUtil[k] = v
	}
	out.ClassProcessorUtil = make(map[string]map[string]float64, len(r.ClassProcessorUtil))
	for k, per := range r.ClassProcessorUtil {
		inner := make(map[string]float64, len(per))
		for ck, cv := range per {
			inner[ck] = cv
		}
		out.ClassProcessorUtil[k] = inner
	}
	return &out
}
