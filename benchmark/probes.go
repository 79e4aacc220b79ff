package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"perfpred/internal/fleet"
	"perfpred/internal/hist"
	"perfpred/internal/hybrid"
	"perfpred/internal/lqn"
	"perfpred/internal/obs"
	"perfpred/internal/regress"
	"perfpred/internal/rm"
	"perfpred/internal/scenario"
	"perfpred/internal/sessioncache"
	"perfpred/internal/sim"
	"perfpred/internal/stats"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// The micro-probes time calls into each module's public functions from
// outside, on fixed inputs that do not depend on the seed, so a layer's
// number compares across workloads and across commits. They run at the
// end of every traced run, with obs disabled, and cost about three
// seconds together. Each figure is a median over a few repetitions.

const probeReps = 5

// median runs fn reps times and returns the median of its results.
func median(reps int, fn func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = fn()
	}
	return stats.Percentile(xs, 50)
}

// perOp is the median, over probeReps repetitions, of the time n calls
// of op take, divided by n, in units of `unit`.
func perOp(n int, unit time.Duration, op func(i int)) float64 {
	return median(probeReps, func() float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		return float64(time.Since(start)) / float64(unit) / float64(n)
	})
}

// obsLayerMetrics turns the private registry's counters, which were on
// only around the traced units, into the ratios and counts the layers
// report about the workload's own traffic.
func obsLayerMetrics(s obs.Snapshot, layer map[string]float64) {
	c := func(name string) float64 { return float64(s.Counters[name]) }
	ratio := func(part, rest float64) float64 {
		if part+rest == 0 {
			return 0
		}
		return part / (part + rest)
	}
	layer["serve.cache_hit_ratio"] = ratio(c("serve_cache_hits"), c("serve_cache_misses"))
	layer["serve.cache_evictions"] = c("serve_cache_evictions")
	layer["serve.builds"] = c("serve_builds")
	if h := s.Histograms["serve_batch_size"]; h.Count > 0 {
		layer["serve.batch_mean_size"] = h.Sum / float64(h.Count)
	}
	layer["serve.batch_solves"] = c("serve_batch_solves")
	layer["serve.solve_queue_high_water"] = float64(s.MaxGauges["serve_solve_queue_high_water"])
	layer["serve.rejected_429"] = c("serve_rejected_overload")
	layer["serve.deadline_504"] = c("serve_deadline_expired")
	if solves := c("lqn_solver_solves"); solves > 0 {
		layer["lqn.mva_iterations_per_solve"] = c("lqn_solver_mva_iterations") / solves
	}
	layer["lqn.warm_hit_ratio"] = ratio(c("lqn_solver_warm_hits"), c("lqn_solver_warm_misses"))
	layer["sim.events_fired"] = c("sim_events_fired")
	layer["sim.event_reuse_ratio"] = ratio(c("sim_event_reuses"), c("sim_event_allocs"))
}

// runProbes fills the probe metrics. A probe whose call fails leaves
// its metric at 0 and records a failed check.
func runProbes(e *env, layer map[string]float64) {
	p := &prober{e: e, layer: layer}
	p.sessioncache()
	p.predictors()
	p.trade()
	p.sim()
	p.fleetRouting()
	p.rm()
	p.scenario()
	p.stats()
}

type prober struct {
	e     *env
	layer map[string]float64
}

// ok records a failed check when err is non-nil and reports whether the
// probe may go on.
func (p *prober) ok(name string, err error) bool {
	if err != nil {
		p.e.addCheck("probe."+name, false, "%v", err)
	}
	return err == nil
}

func (p *prober) sessioncache() {
	const capacity = 16 // serve_churn's cache size
	n := p.e.scale(200000)
	c := sessioncache.NewLRU[int, int](capacity)
	for i := 0; i < capacity; i++ {
		c.Put(i, i)
	}
	p.layer["sessioncache.lru_get_ns"] = perOp(n, time.Nanosecond, func(i int) { c.Get(i % capacity) })
	next := capacity
	p.layer["sessioncache.lru_put_evict_ns"] = perOp(n, time.Nanosecond, func(int) { c.Put(next, next); next++ })
}

// predictors probes the four model layers on AppServF under the 10 %
// buy mix, the cell a serve_churn miss builds.
func (p *prober) predictors() {
	arch, db, demands := workload.AppServF(), workload.CaseStudyDB(), workload.CaseStudyDemands()
	const buyFrac = 0.10
	n := int(knee(arch))
	hcfg := hybrid.Config{DB: db, Demands: demands}

	var sm *hist.ServerModel
	p.layer["hybrid.build_ms"] = median(probeReps, func() float64 {
		start := time.Now()
		m, _, err := hybrid.BuildServerMix(hcfg, arch, buyFrac)
		if p.ok("hybrid.build", err) {
			sm = m
		}
		return float64(time.Since(start)) / 1e6
	})

	model, err := lqn.NewTradeModel(arch, db, demands, workload.MixedWorkload(n, buyFrac))
	if p.ok("lqn.model", err) {
		solver := lqn.NewSolver()
		p.layer["lqn.solve_us"] = perOp(p.e.scale(2000), time.Microsecond, func(int) { _, _ = solver.Solve(model, lqn.Options{}) })
		p.layer["lqn.solve_cold_us"] = perOp(p.e.scale(500), time.Microsecond, func(int) { _, _ = lqn.Solve(model, lqn.Options{}) })
		// One warm-started sweep over ascending populations, as the
		// batcher and the hybrid build run them.
		const points = 100
		warm := lqn.NewSolver()
		warm.WarmStart = true
		p.layer["lqn.warm_sweep_us_per_point"] = median(probeReps, func() float64 {
			warm.Reset()
			start := time.Now()
			for i := 1; i <= points; i++ {
				for j, pop := range workload.MixedWorkload(2*n*i/points, buyFrac) {
					model.Classes[j].Population = pop.Clients
				}
				_, _ = warm.Solve(model, lqn.Options{})
			}
			return float64(time.Since(start)) / 1e3 / points
		})
	}

	if sm != nil {
		nStar := sm.SaturationClients()
		var dps []hist.DataPoint
		for _, f := range []float64{0.25, 0.55, 1.2, 1.6} {
			dps = append(dps, hist.DataPoint{Clients: f * nStar, MeanRT: sm.Predict(f * nStar), Samples: 50})
		}
		p.layer["hist.calibrate_us"] = perOp(p.e.scale(2000), time.Microsecond, func(int) {
			_, err = hist.CalibrateServer(arch, sm.MaxThroughput, sm.M, dps)
		})
		p.ok("hist.calibrate", err)
		var sink float64
		p.layer["hist.predict_ns"] = perOp(p.e.scale(1000000), time.Nanosecond, func(i int) {
			sink += sm.Predict(nStar * (0.5 + float64(i%1000)/1000))
		})
		runtime.KeepAlive(sink)
	}

	// The regress tier as the service trains it: 8 samples × 20
	// simulated seconds.
	tcfg := regress.TrainConfig{
		Archs: []workload.ServerArch{arch}, BuyFracs: []float64{buyFrac}, SamplesPerMix: 8, Seed: 1,
		Opt: trade.MeasureOptions{WarmUp: 5, Duration: 20, Workers: 1},
		Fit: regress.FitConfig{Degree: 2},
	}
	if p.e.opt.quick {
		tcfg.Opt.WarmUp, tcfg.Opt.Duration = 0.5, 2
	}
	var rmodel *regress.Model
	p.layer["regress.train_ms"] = median(3, func() float64 {
		start := time.Now()
		m, err := regress.Train(tcfg)
		if p.ok("regress.train", err) {
			rmodel = m
		}
		return float64(time.Since(start)) / 1e6
	})
	if rmodel != nil {
		p.layer["regress.predict_ns"] = perOp(p.e.scale(200000), time.Nanosecond, func(i int) {
			_, _ = rmodel.Predict(arch.Name, float64(n/2+i%n))
		})
	}
}

func (p *prober) trade() {
	arch := workload.AppServF()
	cfg := trade.Config{
		Server: arch, DB: workload.CaseStudyDB(), Demands: workload.CaseStudyDemands(),
		Load: workload.MixedWorkload(400, 0.10), Seed: 1, WarmUp: 2.5, Duration: 10,
	}
	if p.e.opt.quick {
		cfg.WarmUp, cfg.Duration = 0.5, 2
	}
	var events, wall, mallocs []float64
	for i := 0; i < probeReps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res, err := trade.Run(cfg)
		d := time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		if !p.ok("trade.run", err) {
			return
		}
		wall = append(wall, d*1e3)
		events = append(events, float64(res.EventsFired)/d)
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
	}
	p.layer["trade.run_ms"] = stats.Percentile(wall, 50)
	p.layer["trade.events_per_s"] = stats.Percentile(events, 50)
	p.layer["trade.allocs_per_run"] = stats.Percentile(mallocs, 50)

	// The run a cold serve build pays to calibrate its percentile
	// scale: 40 simulated seconds at 1.4× the saturation population.
	cal := cfg
	cal.Load = workload.MixedWorkload(int(1.4*knee(arch)), 0.10)
	cal.WarmUp, cal.Duration = 10, 40
	if p.e.opt.quick {
		cal.WarmUp, cal.Duration = 1, 4
	}
	p.layer["trade.calibration_run_ms"] = median(3, func() float64 {
		start := time.Now()
		_, err := trade.Run(cal)
		p.ok("trade.calibration_run", err)
		return float64(time.Since(start)) / 1e6
	})
}

// sim probes the two scheduler backends with the hold model (a constant
// population of self-rescheduling timers, the regime a fleet shard
// lives in) at a large and a small population, and the coordinator's
// per-window cost with the least work a window can hold.
func (p *prober) sim() {
	hold := func(newEngine func() *sim.Engine, pending int) float64 {
		e := newEngine()
		rng := sim.NewStream(7)
		var fire func()
		fire = func() { e.Schedule(rng.Exp(1.0), fire) }
		for i := 0; i < pending; i++ {
			e.Schedule(rng.Float64(), fire)
		}
		events := uint64(p.e.scale(100000))
		e.Run(math.Inf(1), events) // settle the queue's shape
		return median(3, func() float64 {
			start := time.Now()
			e.Run(math.Inf(1), events)
			return float64(time.Since(start)) / float64(events)
		})
	}
	large, small := p.e.scale(200000), 1000
	p.layer["sim.hold_ns_heap"] = hold(sim.NewEngine, large)
	p.layer["sim.hold_ns_calendar"] = hold(sim.NewEngineCalendar, large)
	p.layer["sim.hold_ns_heap_small"] = hold(sim.NewEngine, small)
	p.layer["sim.hold_ns_calendar_small"] = hold(sim.NewEngineCalendar, small)

	// Two shards, one timer each firing once a window: what is left is
	// the fan-out, the barrier and the exchange.
	const lookahead = 0.001
	c := sim.NewCoordinator(fleetShards, lookahead)
	defer c.Close()
	for i := 0; i < fleetShards; i++ {
		eng := c.Shard(i).Eng
		var tick func()
		tick = func() { eng.Schedule(lookahead, tick) }
		eng.Schedule(lookahead/2, tick)
	}
	windows := p.e.scale(20000)
	p.layer["sim.coordinator_window_us"] = median(probeReps, func() float64 {
		until := c.Now() + float64(windows)*lookahead
		start := time.Now()
		c.Run(until)
		return float64(time.Since(start)) / 1e3 / float64(windows)
	})
}

// fleetRouting times one fully routed request on a primed router: the
// scorer's pick, the admission and completion counters, and the barrier
// sync every 1024 decisions.
func (p *prober) fleetRouting() {
	route := func(scorer fleet.Scorer, npools int) float64 {
		const nclasses = 2
		caps := make([]int, npools)
		for i := range caps {
			caps[i] = 50 + 10*(i%7)
		}
		r := fleet.NewRouter(scorer, caps, nclasses)
		// Uneven per-pool state, so scorers scan realistic signals.
		for pool := 0; pool < npools; pool++ {
			for k := 0; k < (pool*13)%37; k++ {
				r.Started(pool, k%nclasses)
			}
			r.Completed(pool, 0, 0.05+0.001*float64(pool))
			r.Started(pool, 0)
		}
		r.Sync()
		return perOp(p.e.scale(20000), time.Nanosecond, func(i int) {
			cls := i % nclasses
			dst := r.Route(i%npools, cls)
			r.Started(dst, cls)
			r.Completed(dst, cls, 0.05)
			if i&1023 == 1023 {
				r.Sync()
			}
		})
	}
	p.layer["fleet.route_ns_64.affinity"] = route(fleet.ClassAffinity{}, 64)
	p.layer["fleet.route_ns_625.affinity"] = route(fleet.ClassAffinity{}, fleetPools)
	p.layer["fleet.route_ns_625.static"] = route(fleet.Static{}, fleetPools)
	p.layer["fleet.route_ns_625.leastrt"] = route(fleet.LeastRT{}, fleetPools)
}

// countingPredictor counts the calls Algorithm 1 makes into its model.
type countingPredictor struct {
	rm.Predictor
	calls int
}

func (c *countingPredictor) MaxClients(arch string, goalRT float64) (float64, error) {
	c.calls++
	return c.Predictor.MaxClients(arch, goalRT)
}

func (c *countingPredictor) Predict(arch string, n float64) (float64, error) {
	c.calls++
	return c.Predictor.Predict(arch, n)
}

func (p *prober) rm() {
	archs := workload.CaseStudyServers()
	// The snapshot fleet_routed's replanner sees: 625 pools, two classes.
	snap := &rm.FleetSnapshot{
		Classes: []rm.Class{
			{Name: "buy", GoalRT: 0.150, Clients: fleetPools * fleetClientsPerPool / 10},
			{Name: "browse", GoalRT: 0.300, Clients: fleetPools * fleetClientsPerPool * 9 / 10},
		},
		Pools: make([]rm.PoolState, fleetPools),
	}
	for i := range snap.Pools {
		a := archs[i%len(archs)]
		snap.Pools[i] = rm.PoolState{Pool: i, Arch: a.Name, Power: a.MaxThroughputTypical}
	}
	const replans = 10
	var cold, warm []float64
	calls := 0
	for rep := 0; rep < 3; rep++ {
		pred, err := rm.NewLQNPredictor(archs, workload.CaseStudyDB(), workload.CaseStudyDemands(), workload.BrowseClass(0.300), lqn.Options{})
		if !p.ok("rm.predictor", err) {
			return
		}
		counting := &countingPredictor{Predictor: pred}
		rp := &rm.Replanner{Pred: counting}
		for i := 1; i <= replans; i++ {
			start := time.Now()
			_, err := rp.Replan(snap)
			ms := float64(time.Since(start)) / 1e6
			if !p.ok("rm.replan", err) {
				return
			}
			switch i {
			case 1:
				cold = append(cold, ms)
			case replans:
				warm = append(warm, ms)
			}
		}
		calls = counting.calls
	}
	p.layer["rm.replan_cold_ms"] = stats.Percentile(cold, 50)
	p.layer["rm.replan_warm_ms"] = stats.Percentile(warm, 50)
	p.layer["rm.predictor_calls_per_replan"] = float64(calls) / replans

	// Algorithm 1 on the paper's case study over closed-form models.
	hm, err := hybrid.Build(hybrid.Config{DB: workload.CaseStudyDB(), Demands: workload.CaseStudyDemands(), Workers: 1}, archs)
	if !p.ok("rm.hybrid_build", err) {
		return
	}
	classes, err := rm.SplitLoad(8000, rm.CaseStudyShares())
	if !p.ok("rm.split_load", err) {
		return
	}
	servers := rm.CaseStudyServers()
	p.layer["rm.allocate_us"] = perOp(p.e.scale(200), time.Microsecond, func(int) {
		_, err = rm.Allocate(classes, servers, rm.ModelSet(hm.Servers), 1, rm.Options{})
	})
	p.ok("rm.allocate", err)
}

// scenario times the arrival generator on its most involved path: an
// MMPP cohort thinned under a flash-sale pattern.
func (p *prober) scenario() {
	sc, err := scenario.New("probe").
		AddMMPP("spikes", []scenario.MMPPStateSpec{{Rate: 2, MeanDwell: 20}, {Rate: 30, MeanDwell: 4}}, map[string]float64{"buy": 1}).
		Pattern(scenario.FlashSale(60, 30, 120, 60, 8)).
		Compile("")
	if !p.ok("scenario.compile", err) {
		return
	}
	n := p.e.scale(50000)
	p.layer["scenario.gen_arrivals_per_s"] = median(probeReps, func() float64 {
		g := scenario.NewGen(sc.Cohorts[0], sim.NewStream(1), sim.NewStream(2))
		start := time.Now()
		for i := 0; i < n; i++ {
			g.Next()
		}
		return float64(n) / time.Since(start).Seconds()
	})
}

func (p *prober) stats() {
	rng := sim.NewStream(3)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.Exp(0.05)
	}
	sort.Float64s(xs[:len(xs)/2]) // half sorted, half not, as merged samples are
	q := stats.NewP2Quantile(0.99)
	p.layer["stats.p2_add_ns"] = perOp(p.e.scale(1000000), time.Nanosecond, func(i int) { q.Add(xs[i%len(xs)]) })
	p.layer["stats.percentile_us_100k"] = perOp(p.e.scale(4), time.Microsecond, func(int) { stats.Percentile(xs, 99) })
}
