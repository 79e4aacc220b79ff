package rm

import (
	"fmt"

	"perfpred/internal/lqn"
	"perfpred/internal/sla"
	"perfpred/internal/workload"
)

// LQNPredictor is a Predictor backed by one lqn.TradeSweep per
// architecture: every Predict re-solves the architecture's §5 trade
// model at the asked population on the sweep's retained warm-started
// solver, so a capacity search's doubling/bisection probes and a replan
// loop's repeated questions converge in a fraction of the cold
// iteration count. MaxClients answers through sla.Goal.MaxClients over
// Predict — on the retained solver, so an answer follows the probe
// history — with a per-(arch, goal) memo, so a steady replan cadence
// asks each genuinely new question once.
//
// An LQNPredictor is single-goroutine: the sweeps and the memo are not
// locked. Give each concurrent consumer its own instance.
type LQNPredictor struct {
	load    workload.Workload // the planning class at the population being asked
	sweeps  map[string]*lqn.TradeSweep
	capMemo map[capKey]int
}

// NewLQNPredictor builds the per-architecture sweeps for the given
// class mix (the goal-bearing planning class; think time included). opt
// tunes every solve; the zero Options select the solver defaults.
func NewLQNPredictor(archs []workload.ServerArch, db workload.DBServer, demands map[workload.RequestType]workload.Demand, class workload.ServiceClass, opt lqn.Options) (*LQNPredictor, error) {
	if len(archs) == 0 {
		return nil, fmt.Errorf("rm: LQN predictor needs at least one architecture")
	}
	p := &LQNPredictor{
		load:    workload.Workload{{Class: class, Clients: 1}},
		sweeps:  make(map[string]*lqn.TradeSweep, len(archs)),
		capMemo: make(map[capKey]int),
	}
	for _, a := range archs {
		sw, err := lqn.NewTradeSweep(a, db, demands, p.load, opt)
		if err != nil {
			return nil, err
		}
		p.sweeps[a.Name] = sw
	}
	return p, nil
}

// Predict returns the layered model's mean response time for the
// architecture at n clients (rounded to the nearest population ≥ 1).
func (p *LQNPredictor) Predict(arch string, n float64) (float64, error) {
	sw, ok := p.sweeps[arch]
	if !ok {
		return 0, fmt.Errorf("rm: no architecture %q in LQN predictor", arch)
	}
	clients, err := population(n)
	if err != nil {
		return 0, err
	}
	p.load[0].Clients = clients
	res, err := sw.Solve(p.load)
	if err != nil {
		return 0, err
	}
	return res.MeanResponseTime(), nil
}

// MaxClients returns the largest population the architecture holds
// within goalRT per the layered model, via the shared search over
// integer populations, memoized per (architecture, goal).
func (p *LQNPredictor) MaxClients(arch string, goalRT float64) (float64, error) {
	k := capKey{arch: arch, goal: goalRT}
	if c, ok := p.capMemo[k]; ok {
		return float64(c), nil
	}
	n, err := sla.Goal{MaxRT: goalRT}.MaxClients(maxOracleClients, func(x float64) (float64, error) {
		return p.Predict(arch, x)
	})
	if err != nil {
		return 0, err
	}
	p.capMemo[k] = n
	return float64(n), nil
}
