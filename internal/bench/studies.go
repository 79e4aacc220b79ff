package bench

import (
	"fmt"
	"math"

	"perfpred/internal/fleet"
	"perfpred/internal/lqn"
	"perfpred/internal/regress"
	"perfpred/internal/rm"
	"perfpred/internal/scenario"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// The studies compare what the paper does not: a fourth predictor
// family, request routing inside a fleet, and steady-state predictors
// under transient load. Every cell is simulated or solved, none is a
// host timing, so each table is a function of the suite's seed alone.

// families scores the four predictor families — historical (HYDRA),
// layered queuing, hybrid and black-box regression — against one
// simulated-truth oracle on one probe grid, next to what each consumed
// of the testbed before its first answer. The regress/N rows retrain
// the regression family on N samples per architecture: its accuracy
// against training-set size.
func (s *Suite) families() (*Table, error) {
	archs := workload.CaseStudyServers()
	// The hybrid model and the historical models of all three servers.
	hyb, hydra, _, err := s.RMSetup()
	if err != nil {
		return nil, err
	}
	demands, err := s.lqnDemands()
	if err != nil {
		return nil, err
	}
	layered, err := rm.NewLQNPredictor(archs, workload.CaseStudyDB(), demands, workload.BrowseClass(0), s.LQNOpt)
	if err != nil {
		return nil, err
	}
	// HYDRA measures 3 max throughputs, 2 gradient points and 4 curve
	// points on each established server; LQN and hybrid the 2
	// single-type demand calibrations.
	perRun := s.Opt.WarmUp + s.Opt.Duration
	runs := []int{13, 2, 2}
	families := []rm.EvalFamily{
		{Name: "hydra", Pred: hydra, StartupSimSeconds: 13 * perRun},
		{Name: "lqn", Pred: layered, StartupSimSeconds: 2 * perRun},
		{Name: "hybrid", Pred: hyb, StartupSimSeconds: 2 * perRun},
	}
	// The regression family trains on deliberately short runs, a third
	// of the suite's: its cheapness is what the table weighs.
	for i, perArch := range []int{8, 10, 13, 16} {
		m, err := regress.Train(regress.TrainConfig{
			Archs:         archs,
			SamplesPerMix: perArch,
			Seed:          s.Opt.Seed,
			Opt:           trade.MeasureOptions{WarmUp: s.Opt.WarmUp / 3, Duration: s.Opt.Duration / 3, Workers: s.Opt.Workers},
			Fit:           regress.FitConfig{Degree: 3},
		})
		if err != nil {
			return nil, fmt.Errorf("bench: regression training at %d samples: %w", perArch, err)
		}
		name := "regress"
		if i > 0 {
			name = fmt.Sprintf("regress/%d", perArch)
		}
		runs = append(runs, m.Stats.Samples)
		families = append(families, rm.EvalFamily{Name: name, Pred: m, StartupSimSeconds: m.Stats.SimSeconds})
	}

	// Populations as fractions of each architecture's saturation knee,
	// capacities at a tight and a loose goal.
	var probes []rm.EvalScenario
	for _, a := range archs {
		knee := a.MaxThroughputTypical * workload.ThinkTimeMean
		p := rm.EvalScenario{Arch: a.Name, GoalRTs: []float64{0.5, 1.5}}
		for _, f := range []float64{0.3, 0.6, 0.9, 1.2} {
			p.Pops = append(p.Pops, int(f*knee))
		}
		probes = append(probes, p)
	}
	truth := rm.NewSimOracle(archs, trade.MeasureOptions{Seed: s.Opt.Seed, WarmUp: s.Opt.WarmUp, Duration: s.Opt.Duration})
	scores, err := rm.PredictorEval(families, truth, probes)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "families",
		Title:  "Four predictor families: accuracy against one simulated truth vs start-up cost",
		Header: []string{"family", "meanRTerr%", "maxRTerr%", "meanCapErr%", "maxCapErr%", "RTprobes", "capProbes", "runs", "sim-s"},
	}
	for i, sc := range scores {
		t.addRow(label(sc.Name), f2(sc.MeanAbsRTErrPct), f2(sc.MaxAbsRTErrPct), f2(sc.MeanAbsCapErrPct), f2(sc.MaxAbsCapErrPct),
			itoa(sc.RTProbes), itoa(sc.CapProbes), itoa(runs[i]), f0(sc.StartupSimSeconds))
	}
	t.addNote("probes: populations at 0.3/0.6/0.9/1.2 x each server's knee, capacities at 0.5 s and 1.5 s goals; errors are |predicted-measured|/measured")
	t.addNote("runs and sim-s: testbed measurements and simulated seconds a family consumes before its first answer (regress trains on %.0f s runs, the rest calibrate on %.0f s runs)",
		(s.Opt.WarmUp+s.Opt.Duration)/3, perRun)
	t.addNote("regress/N: the regression family retrained on N samples per server")
	return t, nil
}

// fleetAB routes one seeded fleet with each scorer in turn while
// Algorithm 1 replans the class→pool affinity from inside the run, so
// the routing policy is the only variable between rows. The fleet runs
// its shards concurrently, so the rows run one after another.
func (s *Suite) fleetAB() (*Table, error) {
	const pools, shards, perPool, replanPeriod = 8, 4, 500, 2.0
	archs := workload.CaseStudyServers()
	duration := s.Opt.Duration / 2
	t := &Table{
		ID: "fleet-ab",
		Title: fmt.Sprintf("Routing scorers under in-loop Algorithm 1: %d pools x %d clients, %d shards, replans every %.0f s, %.0f s measured",
			pools, perPool, shards, replanPeriod, duration),
		Header: []string{"scorer", "meanRT(ms)", "throughput/s", "decisions", "remote%", "replans", "affinityChanges"},
	}
	for _, name := range fleet.ScorerNames() {
		scorer, err := fleet.ScorerByName(name)
		if err != nil {
			return nil, err
		}
		// A replanner per run: its warm solver state must not leak
		// from one scorer's row into the next.
		pred, err := rm.NewLQNPredictor(archs, workload.CaseStudyDB(), workload.CaseStudyDemands(), workload.BrowseClass(0.300), lqn.Options{})
		if err != nil {
			return nil, err
		}
		res, err := fleet.Run(fleet.Config{
			Pools:   pools,
			Shards:  shards,
			Archs:   archs,
			DB:      workload.CaseStudyDB(),
			Demands: workload.CaseStudyDemands(),
			Load: workload.Workload{
				{Class: workload.BuyClass(0.150), Clients: perPool / 10},
				{Class: workload.BrowseClass(0.300), Clients: perPool - perPool/10},
			},
			Seed:         s.Opt.Seed,
			WarmUp:       duration / 6,
			Duration:     duration,
			MaxRTSamples: 64,
			Scorer:       scorer,
			ReplanPeriod: replanPeriod,
			Replanner:    &rm.Replanner{Pred: pred},
			WarmupDelay:  0.5,
			DrainDelay:   1,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: fleet run with scorer %s: %w", name, err)
		}
		remote := 0.0
		if res.Decisions > 0 {
			remote = 100 * float64(res.Remote) / float64(res.Decisions)
		}
		t.addRow(label(name), f1(res.Trade.MeanRT*1000), f1(res.Trade.Throughput), itoa(int(res.Decisions)),
			f1(remote), itoa(res.Replans), itoa(res.AffinityChanges))
	}
	t.addNote("per pool: 10%% buy clients with a 150 ms goal, 90%% browse with 300 ms; pools cycle AppServS/F/VF; seed %d", s.Opt.Seed)
	t.addNote("static keeps every request on its own pool; affinity follows the replanner's plan; weighted blends queue, response time and plan 1:1:2")
	return t, nil
}

// ScenarioWindows cold-starts the spec's traffic on AppServF and
// reports, per window, the offered rate, what the simulation measured,
// and the error of each steady-state predictor given only the window's
// mean offered load: what assuming a steady state costs through ramps,
// overload and drain.
func (s *Suite) ScenarioWindows(sc *scenario.Compiled, window, duration float64) (*Table, error) {
	arch := workload.AppServF()
	histM, err := s.histModel(arch)
	if err != nil {
		return nil, err
	}
	hyb, err := s.Hybrid()
	if err != nil {
		return nil, err
	}
	cfg := s.config(arch, nil)
	cfg.Scenario, cfg.WarmUp, cfg.Duration = sc, 0, duration
	points, err := trade.Windows(cfg, window)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "scenario",
		Title:  fmt.Sprintf("Windowed transient run of scenario %q", sc.Name),
		Header: []string{"window", "offered/s", "completed", "throughput/s", "meanRT(ms)", "hydra", "lqn", "hybrid"},
	}
	closed := sc.Workload().TotalClients()
	hybridRT := func(n float64) float64 {
		rt, err := hyb.Servers.Predict(arch.Name, n)
		if err != nil {
			return math.NaN()
		}
		return rt
	}
	for _, p := range points {
		offered := sc.MeanOfferedRate(p.Start, p.End)
		hydra, layered, hybrid := label("-"), label("-"), label("-")
		if closed > 0 || offered > 0 {
			hydra = errCell(predictFixedPoint(closed, offered, histM.Predict), p.MeanRT)
			layered = errCell(s.predictLQN(arch, sc.WorkloadOver(p.Start, p.End)), p.MeanRT)
			hybrid = errCell(predictFixedPoint(closed, offered, hybridRT), p.MeanRT)
		}
		t.addRow(label(fmt.Sprintf("[%.0f,%.0f)", p.Start, p.End)), f1(offered), itoa(p.Completed),
			f1(p.Throughput), f1(p.MeanRT*1000), hydra, layered, hybrid)
	}
	t.addNote("cold start (no warm-up discard); offered/s is the spec's open-cohort rate, so closed cohorts contribute 0")
	t.addNote("seed %d, window %.0fs, horizon %.0fs on AppServF + case-study DB", s.Opt.Seed, window, duration)
	t.addNote("hydra/lqn/hybrid: error of the steady-state prediction at the window's mean offered load against the window's measured mean RT; sat = the model has no steady state there")
	for _, r := range scenario.SelfCheck(sc, s.Opt.Seed, duration) {
		verdict := "ok"
		if !r.OK {
			verdict = "FAIL: " + r.Reason
		}
		t.addNote("self-check %s (%s): %d arrivals, %.1f/s generated vs %.1f/s declared, CV2 %.2f, IDC %.2f: %s",
			r.Cohort, r.Kind, r.Arrivals, r.MeanRate, r.WantRate, r.CV2, r.IDC, verdict)
	}
	return t, nil
}

// predictFixedPoint maps a window's load onto a clients→RT curve. The
// historical and hybrid curves are calibrated on closed clients
// cycling with think time Z, and by the interactive response-time law
// a population N delivers throughput N/(R(N)+Z): the population
// equivalent to an offered rate λ beside the closed clients is the
// fixed point N = closed + λ·(R(N)+Z). It returns NaN when the
// iteration diverges: λ is above the curve's saturation throughput and
// the model has no steady state at that rate.
func predictFixedPoint(closed int, lambda float64, rt func(float64) float64) float64 {
	const think = workload.ThinkTimeMean
	n := float64(closed)
	for i := 0; i < 500; i++ {
		r := rt(n)
		if math.IsNaN(r) || r <= 0 {
			return math.NaN()
		}
		next := float64(closed) + lambda*(r+think)
		if next > 1e7 {
			return math.NaN()
		}
		if math.Abs(next-n) < 1e-9*(1+n) {
			n = next
			break
		}
		n = 0.5*n + 0.5*next // damped iteration
	}
	if pred := rt(n); pred > 0 {
		return pred
	}
	return math.NaN()
}

// predictLQN solves the layered model for the window's workload: the
// scenario's own classes, closed cohorts as populations and open ones
// as streams. NaN when the solver refuses the load or does not
// converge.
func (s *Suite) predictLQN(arch workload.ServerArch, load workload.Workload) float64 {
	res, err := s.lqnPredict(arch, load)
	if err != nil || !res.Converged || res.MeanResponseTime() <= 0 {
		return math.NaN()
	}
	return res.MeanResponseTime()
}

// errCell renders a prediction's signed relative error against the
// measured value: "sat" for a model with no steady state, "-" for a
// window that completed nothing.
func errCell(pred, truth float64) Cell {
	switch {
	case math.IsNaN(pred):
		return label("sat")
	case truth <= 0:
		return label("-")
	}
	e := 100 * (pred - truth) / truth
	return num(fmt.Sprintf("%+.1f%%", e), e)
}
