package rm

import (
	"fmt"
	"math"

	"perfpred/internal/lqn"
	"perfpred/internal/sla"
	"perfpred/internal/workload"
)

// LQNPredictor is a Predictor backed by retained, warm-started layered
// queuing solves: one §5 trade model per architecture is built once,
// and every Predict edits the model's class population in place and
// re-solves on a retained lqn.Solver with WarmStart enabled — adjacent
// populations seed each other's Schweitzer iteration, so a capacity
// search's doubling/bisection probes and a replan loop's repeated
// questions converge in a fraction of the cold iteration count.
// MaxClients answers through sla.Goal.MaxClients with a per-(arch, goal)
// memo, so a steady replan cadence asks each genuinely new question
// once.
//
// An LQNPredictor is single-goroutine: the retained solvers and the
// memo are not locked. Give each concurrent consumer its own instance.
type LQNPredictor struct {
	opt     lqn.Options
	limit   int
	archs   map[string]*lqnArchState
	capMemo map[capKey]int

	solves, iterations, capHits, capMisses uint64
}

type lqnArchState struct {
	model  *lqn.Model
	solver *lqn.Solver
	class  *lqn.Class
}

// NewLQNPredictor builds the per-architecture models for the given
// class mix (the goal-bearing planning class; think time included) and
// retains a warm-started solver per architecture. opt tunes every
// solve; the zero Options select the solver defaults.
func NewLQNPredictor(archs []workload.ServerArch, db workload.DBServer, demands map[workload.RequestType]workload.Demand, class workload.ServiceClass, opt lqn.Options) (*LQNPredictor, error) {
	if len(archs) == 0 {
		return nil, fmt.Errorf("rm: LQN predictor needs at least one architecture")
	}
	p := &LQNPredictor{
		opt:     opt,
		limit:   maxOracleClients,
		archs:   make(map[string]*lqnArchState, len(archs)),
		capMemo: make(map[capKey]int),
	}
	for _, a := range archs {
		m, err := lqn.NewTradeModel(a, db, demands, workload.Workload{{Class: class, Clients: 1}})
		if err != nil {
			return nil, err
		}
		s := lqn.NewSolver()
		s.WarmStart = true
		p.archs[a.Name] = &lqnArchState{model: m, solver: s, class: m.Classes[0]}
	}
	return p, nil
}

// Predict returns the layered model's mean response time for the
// architecture at n clients (rounded to the nearest population ≥ 1).
func (p *LQNPredictor) Predict(arch string, n float64) (float64, error) {
	st, ok := p.archs[arch]
	if !ok {
		return 0, fmt.Errorf("rm: no architecture %q in LQN predictor", arch)
	}
	clients := int(math.Round(n))
	if clients < 1 {
		clients = 1
	}
	st.class.Population = clients
	res, err := st.solver.Solve(st.model, p.opt)
	if err != nil {
		return 0, err
	}
	p.solves++
	p.iterations += uint64(res.Iterations)
	return res.MeanResponseTime(), nil
}

// MaxClients returns the largest population the architecture holds
// within goalRT per the layered model, via the shared search over
// integer populations, memoized per (architecture, goal).
func (p *LQNPredictor) MaxClients(arch string, goalRT float64) (float64, error) {
	k := capKey{arch: arch, goal: goalRT}
	if c, ok := p.capMemo[k]; ok {
		p.capHits++
		return float64(c), nil
	}
	n, err := sla.Goal{MaxRT: goalRT}.MaxClients(p.limit, func(x float64) (float64, error) {
		return p.Predict(arch, x)
	})
	if err != nil {
		return 0, err
	}
	p.capMisses++
	p.capMemo[k] = n
	return float64(n), nil
}

// LQNPredictorStats reports the work the retained solvers have done.
type LQNPredictorStats struct {
	// Solves and Iterations count MVA solves and their fixed-point
	// sweeps; warm starts show up as a low Iterations/Solves ratio.
	Solves, Iterations uint64
	// CapacityHits and CapacityMisses count MaxClients memo outcomes.
	CapacityHits, CapacityMisses uint64
}

// Stats returns the predictor's cumulative work counters.
func (p *LQNPredictor) Stats() LQNPredictorStats {
	return LQNPredictorStats{
		Solves: p.solves, Iterations: p.iterations,
		CapacityHits: p.capHits, CapacityMisses: p.capMisses,
	}
}
