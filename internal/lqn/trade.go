package lqn

import (
	"errors"
	"fmt"
	"slices"

	"perfpred/internal/sla"
	"perfpred/internal/workload"
)

// NewTradeModel builds the paper's §5 layered queuing model of the
// case study: client reference classes calling application-server
// entries that make synchronous calls to database entries. The
// application and database servers are tasks with the case-study
// thread multiplicities (50 and 20) running on processor-sharing
// processors; demands are per-request-type means on the reference
// architecture, scaled by the server's benchmarked speed via the
// processor speed.
func NewTradeModel(server workload.ServerArch, db workload.DBServer, demands map[workload.RequestType]workload.Demand, load workload.Workload) (*Model, error) {
	if err := server.Validate(); err != nil {
		return nil, err
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	if err := load.Validate(); err != nil {
		return nil, err
	}

	// Request types in deterministic order.
	types := make([]workload.RequestType, 0, len(demands))
	for rt := range demands {
		types = append(types, rt)
	}
	slices.Sort(types)

	appTask := &Task{Name: "appserver", Processor: "appcpu", Mult: server.MPL}
	dbTask := &Task{Name: "dbserver", Processor: "dbcpu", Mult: db.MPL}
	var latencyTask *Task
	for _, rt := range types {
		d := demands[rt]
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("lqn: demand for %q: %w", rt, err)
		}
		dbEntry := &Entry{Name: "db_" + string(rt), Demand: d.DBTimePerCall}
		appEntry := &Entry{
			Name:   "app_" + string(rt),
			Demand: d.AppServerTime,
			Calls:  []Call{{Target: dbEntry.Name, Mean: d.DBCallsPerRequest}},
		}
		if d.DBLatencyPerCall > 0 {
			// Pure per-call latency: an infinite-server delay visited
			// once per database call.
			if latencyTask == nil {
				latencyTask = &Task{Name: "dblatency", Processor: "dbwire", Mult: 1 << 20}
			}
			latEntry := &Entry{Name: "lat_" + string(rt), Demand: d.DBLatencyPerCall}
			latencyTask.Entries = append(latencyTask.Entries, latEntry)
			appEntry.Calls = append(appEntry.Calls, Call{Target: latEntry.Name, Mean: d.DBCallsPerRequest})
		}
		appTask.Entries = append(appTask.Entries, appEntry)
		dbTask.Entries = append(dbTask.Entries, dbEntry)
	}

	m := &Model{
		Processors: []*Processor{
			{Name: "appcpu", Mult: 1, Speed: server.Speed, Sched: PS},
			{Name: "dbcpu", Mult: 1, Speed: db.Speed, Sched: PS},
		},
		Tasks: []*Task{appTask, dbTask},
	}
	if latencyTask != nil {
		m.Processors = append(m.Processors, &Processor{Name: "dbwire", Mult: 1, Speed: 1, Sched: Delay})
		m.Tasks = append(m.Tasks, latencyTask)
	}
	for _, p := range load {
		calls := make([]Call, 0, len(p.Class.Mix))
		for _, rt := range types {
			if f := p.Class.Mix.Fraction(rt); f > 0 {
				calls = append(calls, Call{Target: "app_" + string(rt), Mean: f})
			}
		}
		if len(calls) == 0 {
			return nil, fmt.Errorf("lqn: class %q has no resolvable mix entries", p.Class.Name)
		}
		cl := &Class{
			Name:  p.Class.Name,
			Calls: calls,
		}
		if p.Open() {
			cl.ArrivalRate = p.ArrivalRate
		} else {
			cl.Population = p.Clients
			cl.Think = p.Class.ThinkTimeMean
		}
		m.Classes = append(m.Classes, cl)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// TradeSweep is the paper's recurring object: the layered model of one
// architecture solved at a handful of client populations (§5's
// predictions, §6's pseudo data, §8.2's capacity search). It owns the
// trade model, a retained warm-started Solver and the options of every
// solve, and with them the Solver's mutate-in-place contract: the same
// *Model every time, invalidateDemands after a retune, and a *Result
// that is the solver's until the next Solve (Clone it to retain). Not
// for concurrent use.
type TradeSweep struct {
	// Model is the swept model. A caller that needs a differently
	// configured solver (figure 3's cold-started coarse criterion) sets
	// its populations and solves it by hand.
	Model *Model

	solver *Solver
	opt    Options
}

// NewTradeSweep builds the trade model for shape — the classes every
// later load must repeat, in order; its populations are placeholders —
// and retains a warm-started solver for it.
func NewTradeSweep(server workload.ServerArch, db workload.DBServer, demands map[workload.RequestType]workload.Demand, shape workload.Workload, opt Options) (*TradeSweep, error) {
	m, err := NewTradeModel(server, db, demands, shape)
	if err != nil {
		return nil, err
	}
	return &TradeSweep{Model: m, solver: &Solver{WarmStart: true}, opt: opt}, nil
}

// Solve gives class i load[i].Clients clients and solves, seeded from
// the previous solution. It takes a workload rather than a count
// because relationship 3 sweeps the mix at a fixed total.
func (t *TradeSweep) Solve(load workload.Workload) (*Result, error) {
	if len(load) != len(t.Model.Classes) {
		return nil, fmt.Errorf("lqn: load has %d classes, the swept model %d", len(load), len(t.Model.Classes))
	}
	for i, p := range load {
		t.Model.Classes[i].Population = p.Clients
	}
	return t.solver.Solve(t.Model, t.opt)
}

// Retune rewrites the model's demands in place (see retuneTradeModel)
// and drops the solver's cached demand folding, keeping the resolved
// topology and the warm start.
func (t *TradeSweep) Retune(demands map[workload.RequestType]workload.Demand) error {
	if err := retuneTradeModel(t.Model, demands); err != nil {
		return err
	}
	t.solver.invalidateDemands()
	return nil
}

// MaxClients is the §8.2 search: the largest n ≤ limit whose load(n)
// keeps the request-weighted mean response time within goalRT, and the
// solves it took. It runs sla.MaxClients' fixed probe sequence on a
// fresh warm-started solver, so the answer never depends on what the
// sweep solved before and an offline rerun reproduces it exactly.
func (t *TradeSweep) MaxClients(goalRT float64, limit int, load func(n int) workload.Workload) (clients, evals int, err error) {
	fresh := TradeSweep{Model: t.Model, solver: &Solver{WarmStart: true}, opt: t.opt}
	clients, err = sla.MaxClients(limit, func(n int) (bool, error) {
		evals++
		res, err := fresh.Solve(load(n))
		if err != nil {
			return false, err
		}
		return res.MeanResponseTime() <= goalRT, nil
	})
	return clients, evals, err
}

// retuneTradeModel updates, in place, the entry demands and call means
// of a model built by NewTradeModel to a new demand map — the
// structure-preserving half of a rebuild. A retained Solver must be
// told (invalidateDemands); TradeSweep.Retune does both.
//
// The demand map must cover the same request types the model was built
// with, and each type's latency term must stay on the same side of
// zero (present or absent) — a latency appearing or disappearing
// changes the model structure and needs a rebuild. Models augmented by
// AddCriticalSection cannot be retuned: the section's CPU inflation is
// folded into the entry demands and would be lost.
func retuneTradeModel(m *Model, demands map[workload.RequestType]workload.Demand) error {
	entries := make(map[string]*Entry, 8)
	for _, t := range m.Tasks {
		if t.Name == "critsec" {
			return errors.New("lqn: cannot retune a model with a critical section; rebuild it")
		}
		for _, e := range t.Entries {
			entries[e.Name] = e
		}
	}
	types := make([]workload.RequestType, 0, len(demands))
	for rt := range demands {
		types = append(types, rt)
	}
	slices.Sort(types)
	for _, rt := range types {
		d := demands[rt]
		if err := d.Validate(); err != nil {
			return fmt.Errorf("lqn: demand for %q: %w", rt, err)
		}
		app, ok := entries["app_"+string(rt)]
		if !ok {
			return fmt.Errorf("lqn: model has no entries for request type %q; rebuild it", rt)
		}
		db, ok := entries["db_"+string(rt)]
		if !ok {
			return fmt.Errorf("lqn: model has no entries for request type %q; rebuild it", rt)
		}
		lat, hasLat := entries["lat_"+string(rt)]
		if (d.DBLatencyPerCall > 0) != hasLat {
			return fmt.Errorf("lqn: request type %q would change the latency structure; rebuild the model", rt)
		}
		app.Demand = d.AppServerTime
		db.Demand = d.DBTimePerCall
		if hasLat {
			lat.Demand = d.DBLatencyPerCall
		}
		for i := range app.Calls {
			switch app.Calls[i].Target {
			case db.Name, "lat_" + string(rt):
				app.Calls[i].Mean = d.DBCallsPerRequest
			}
		}
	}
	return nil
}

// AddCriticalSection augments a trade model with the profiled §8.1
// bottleneck: application requests enter a single-threaded critical
// section with probability fraction, holding a global lock for a mean
// of meanTime seconds of CPU. The paper notes the layered method "can
// model systems containing queues that are not explicitly defined ...
// however [it] require[s] additional profiling to model the extra
// queues created" — this helper is that profiling step: it adds the
// serialisation queue as an explicit single-server FCFS station and
// folds the section's CPU work into the application entries. Without
// it (the naive model) the layered prediction misses the bottleneck
// entirely.
func AddCriticalSection(m *Model, serverSpeed, meanTime, fraction float64) error {
	if meanTime <= 0 {
		return errors.New("lqn: critical section needs positive mean time")
	}
	if fraction <= 0 || fraction > 1 {
		return fmt.Errorf("lqn: critical-section fraction %v outside (0,1]", fraction)
	}
	if serverSpeed <= 0 {
		return errors.New("lqn: critical section needs positive server speed")
	}
	const (
		procName  = "cslock"
		entryName = "cs_section"
	)
	for _, p := range m.Processors {
		if p.Name == procName {
			return fmt.Errorf("lqn: model already has a %q processor", procName)
		}
	}
	m.Processors = append(m.Processors, &Processor{
		Name: procName, Mult: 1, Speed: serverSpeed, Sched: FCFS,
	})
	m.Tasks = append(m.Tasks, &Task{
		Name: "critsec", Processor: procName, Mult: 1,
		Entries: []*Entry{{Name: entryName, Demand: meanTime}},
	})
	for _, t := range m.Tasks {
		if t.Name != "appserver" {
			continue
		}
		for _, e := range t.Entries {
			// The section's CPU work inflates the entry demand; the
			// serialisation wait comes from the lock station.
			e.Demand += fraction * meanTime
			e.Calls = append(e.Calls, Call{Target: entryName, Mean: fraction})
		}
	}
	return m.Validate()
}

// PredictTrade is the one-call convenience: build the case-study model
// for the given server and workload and solve it.
func PredictTrade(server workload.ServerArch, demands map[workload.RequestType]workload.Demand, load workload.Workload, opt Options) (*Result, error) {
	m, err := NewTradeModel(server, workload.CaseStudyDB(), demands, load)
	if err != nil {
		return nil, err
	}
	return Solve(m, opt)
}
