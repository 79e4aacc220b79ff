package main

import (
	"fmt"
	"math"
	"time"

	"perfpred/internal/fleet"
	"perfpred/internal/lqn"
	"perfpred/internal/rm"
	"perfpred/internal/stats"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// The fleet workloads share one fleet: 625 pools × 400 closed clients
// (250 000; 10 % buy class with a 150 ms goal, 90 % browse with 300 ms),
// architectures S/F/VF round-robin, 2 shards. Only the router and the
// replanner differ, so the pair is mechanism and bypass for each other.
const (
	fleetPools          = 625
	fleetClientsPerPool = 400
	fleetShards         = 2
	fleetWarmUp         = 2.0 // simulated seconds
	fleetReplanPeriod   = 2.0
	// Simulated seconds measured per unit, sized so a unit takes about
	// three host seconds on the 2-core box.
	fleetRoutedDuration = 6.0
	fleetStaticDuration = 14.0
)

type fleetInst struct {
	e              *env
	routed         bool
	pools, clients int // clients per pool
	duration       float64

	fingerprint string
	last        *fleet.Result // the last untraced unit's
	walls       []float64     // untraced units, seconds
	events      []float64     // untraced units, events per second
}

func setupFleetRouted(e *env) (instance, error) { return setupFleet(e, true) }
func setupFleetStatic(e *env) (instance, error) { return setupFleet(e, false) }

func newFleetInst(e *env, routed bool) *fleetInst {
	f := &fleetInst{e: e, routed: routed, pools: fleetPools, clients: fleetClientsPerPool, duration: fleetStaticDuration}
	if routed {
		f.duration = fleetRoutedDuration
	}
	if e.opt.quick {
		f.pools, f.clients = 25, 200 // 1/50 of the clients
	}
	return f
}

// setupFleet is what a fleet run pays before its first simulated
// second: the planning predictor, and the construction of every pool
// and client (done once here, apart, so it shows as set-up; fleet.Run
// repeats it inside each unit's wall time).
func setupFleet(e *env, routed bool) (instance, error) {
	f := newFleetInst(e, routed)
	cfg, err := f.config(nil)
	if err != nil {
		return nil, err
	}
	caps := make([]int, cfg.Pools)
	for i := range caps {
		caps[i] = cfg.Archs[i%len(cfg.Archs)].MPL
	}
	run, err := trade.NewSharded(trade.Config{
		Server: cfg.Archs[0], PoolArchs: cfg.Archs, DB: cfg.DB, Demands: cfg.Demands,
		Load: cfg.Load, Seed: cfg.Seed, WarmUp: cfg.WarmUp, Duration: cfg.Duration,
		MaxRTSamples: cfg.MaxRTSamples, Pools: cfg.Pools, Shards: cfg.Shards,
		Router: fleet.NewRouter(cfg.Scorer, caps, len(cfg.Load)),
	})
	if err != nil {
		return nil, err
	}
	run.Close()
	return f, nil
}

func (f *fleetInst) close() {}

// spanPredictor records a span around every call Algorithm 1 makes
// into the planning predictor, the one boundary inside fleet.Run the
// benchmark can see from outside.
type spanPredictor struct {
	rm.Predictor
	sp                 *tracer
	predict, maxClient spanName
	parent, req        int64
}

func (p *spanPredictor) Predict(arch string, n float64) (float64, error) {
	id := p.sp.begin(p.predict, p.parent, p.req)
	defer p.sp.end(id)
	return p.Predictor.Predict(arch, n)
}

func (p *spanPredictor) MaxClients(arch string, goalRT float64) (float64, error) {
	id := p.sp.begin(p.maxClient, p.parent, p.req)
	defer p.sp.end(id)
	return p.Predictor.MaxClients(arch, goalRT)
}

// config builds one unit's fleet.Config. Every unit gets a fresh
// replanner so retained solver state never carries from one unit into
// the next and every unit does identical work.
func (f *fleetInst) config(wrap *spanPredictor) (fleet.Config, error) {
	archs := workload.CaseStudyServers()
	buy := f.clients / 10
	cfg := fleet.Config{
		Pools: f.pools, Shards: fleetShards, Archs: archs,
		DB: workload.CaseStudyDB(), Demands: workload.CaseStudyDemands(),
		Load: workload.Workload{
			{Class: workload.BuyClass(0.150), Clients: buy},
			{Class: workload.BrowseClass(0.300), Clients: f.clients - buy},
		},
		Seed: f.e.opt.seed, WarmUp: fleetWarmUp, Duration: f.duration, MaxRTSamples: 64,
		Scorer: fleet.Static{},
	}
	if !f.routed {
		return cfg, nil
	}
	pred, err := rm.NewLQNPredictor(archs, cfg.DB, cfg.Demands, workload.BrowseClass(0.300), lqn.Options{})
	if err != nil {
		return cfg, err
	}
	cfg.Scorer = fleet.ClassAffinity{}
	cfg.ReplanPeriod, cfg.WarmupDelay, cfg.DrainDelay = fleetReplanPeriod, 0.5, 1
	cfg.Replanner = &rm.Replanner{Pred: pred}
	if wrap != nil {
		wrap.Predictor = pred
		cfg.Replanner.Pred = wrap
	}
	return cfg, nil
}

func fleetFingerprint(r *fleet.Result) string {
	return fmt.Sprintf("events=%d meanRT=%016x throughput=%016x decisions=%d remote=%d replans=%d",
		r.Trade.EventsFired, math.Float64bits(r.Trade.MeanRT), math.Float64bits(r.Trade.Throughput),
		r.Decisions, r.Remote, r.Replans)
}

func (f *fleetInst) unit(sp *tracer) (unitStats, error) {
	var wrap *spanPredictor
	req := int64(sp.len() + 1)
	root := sp.begin(sp.name("fleet.run"), 0, req)
	if sp != nil {
		wrap = &spanPredictor{
			sp: sp, predict: sp.name("rm.predictor.predict"), maxClient: sp.name("rm.predictor.max_clients"),
			parent: root, req: req,
		}
	}
	cfg, err := f.config(wrap)
	if err != nil {
		return unitStats{}, err
	}
	res, err := fleet.Run(cfg)
	sp.end(root)
	if err != nil {
		return unitStats{}, err
	}
	u := unitStats{wall: res.Wall, ops: res.Trade.EventsFired}
	f.verify(&u, res)
	if sp == nil {
		f.last = res // replan latencies without the predictor's spans in them
		f.walls = append(f.walls, res.Wall.Seconds())
		f.events = append(f.events, float64(res.Trade.EventsFired)/res.Wall.Seconds())
	}
	return u, nil
}

// verify runs the per-unit checks. A simulator-only speed-up must leave
// every one of these figures, and the fingerprint, exactly as they were.
func (f *fleetInst) verify(u *unitStats, r *fleet.Result) {
	e := f.e
	// Little's law on the closed fleet: N = X·(R + Z), within 3 % or
	// four standard errors of the completion count if that is wider
	// (it is at -quick scale).
	n := float64(f.pools * f.clients)
	law := r.Trade.Throughput * (r.Trade.MeanRT + workload.ThinkTimeMean)
	tol := math.Max(0.03, 4/math.Sqrt(r.Trade.Throughput*f.duration))
	e.unitCheck(u, "fleet.littles_law", math.Abs(law-n)/n <= tol,
		"clients %v, X·(R+Z) = %v, tolerance %.3f", n, law, tol)
	e.unitCheck(u, "fleet.remote_le_decisions", r.Remote <= r.Decisions, "remote %d > decisions %d", r.Remote, r.Decisions)
	wantReplans := 0
	if f.routed {
		wantReplans = int(math.Floor((fleetWarmUp + f.duration) / fleetReplanPeriod))
	} else {
		e.unitCheck(u, "fleet.static_stays_local", r.Remote == 0, "static scorer sent %d requests to remote pools", r.Remote)
	}
	e.unitCheck(u, "fleet.replans", r.Replans == wantReplans, "replans %d, want %d", r.Replans, wantReplans)
	fp := fleetFingerprint(r)
	if f.fingerprint == "" {
		f.fingerprint = fp
	}
	e.unitCheck(u, "fleet.fingerprint_repeats", fp == f.fingerprint, "%s, first unit %s", fp, f.fingerprint)
}

func (f *fleetInst) finish(rep *report, layer map[string]float64) {
	rep.Fingerprint = f.fingerprint
	rep.Samples["fleet.units_untraced"] = len(f.walls)
	simS, wall := fleetWarmUp+f.duration, stats.Percentile(f.walls, 50)
	rep.Info["fleet.sim_s_per_wall_s"] = simS / wall
	if f.e.sp == nil {
		return
	}
	r := f.last
	layer["fleet.events_per_s"] = stats.Percentile(f.events, 50)
	layer["fleet.sim_s_per_wall_s"] = simS / wall
	layer["fleet.decisions"] = float64(r.Decisions)
	if r.Decisions > 0 {
		layer["fleet.remote_share"] = float64(r.Remote) / float64(r.Decisions)
	}
	// An estimate, not a measurement: decisions × the probe's cost of
	// one routed request with this scorer, as a share of the wall time.
	layer["fleet.route_share_est"] = float64(r.Decisions) * layer["fleet.route_ns_625."+r.Scorer] / 1e9 / wall
	layer["fleet.barriers"] = float64(r.Barriers)
	layer["fleet.affinity_changes"] = float64(r.AffinityChanges)
	if len(r.ReplanLatencies) > 0 {
		ms := make([]float64, len(r.ReplanLatencies))
		var sum time.Duration
		for i, d := range r.ReplanLatencies {
			ms[i] = float64(d) / 1e6
			sum += d
		}
		layer["fleet.replan_ms_p50"] = stats.Percentile(ms, 50)
		layer["fleet.replan_ms_max"] = stats.Percentile(ms, 100)
		layer["fleet.replan_share"] = sum.Seconds() / r.Wall.Seconds()
	}

	// The ROADMAP's target is a ratio between the two fleet workloads:
	// host time per simulated second, routed over static. Time one
	// untraced unit of the counterpart to form it.
	other := newFleetInst(&env{opt: f.e.opt}, !f.routed)
	u, err := other.unit(nil)
	if err != nil || u.failed > 0 {
		f.e.addCheck("fleet.counterpart_unit", false, "counterpart unit failed: %v", err)
		return
	}
	mine, theirs := wall/simS, u.wall.Seconds()/(fleetWarmUp+other.duration)
	if f.routed {
		layer["fleet.routed_over_static"] = mine / theirs
	} else {
		layer["fleet.routed_over_static"] = theirs / mine
	}
}

// unitCheck counts one per-unit check and records it only when it fails.
func (e *env) unitCheck(u *unitStats, name string, ok bool, format string, args ...any) {
	u.attempted++
	if !ok {
		u.failed++
		e.unitFails = append(e.unitFails, check{Name: name, Status: "fail", Detail: fmt.Sprintf(format, args...)})
	}
}
