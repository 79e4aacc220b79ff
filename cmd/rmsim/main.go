// Command rmsim runs the §9 resource-management tuning study: it
// calibrates the truth (historical) and planning (hybrid) models, then
// sweeps load and slack printing the % SLA failure and % server usage
// cost metrics of figures 5-8.
//
// The fleet subcommand moves the same resource manager in-loop: a
// sharded multi-pool simulation where every request is routed by a
// pluggable scorer and Algorithm 1 replans the class→pool affinity
// periodically from inside the run (see internal/fleet).
//
// Usage:
//
//	rmsim sweep  [-slack 1.1] [-seed 1]     # one figure-5/6 line
//	rmsim slacks [-from 1.1 -to 0 -step 0.1]  # figure 7
//	rmsim minzero                             # minimum 0%-failure slack
//	rmsim frontier [-max-servers 8 -max-per-arch 4 -cost-s 0.08 -cost-f 0.17 -cost-vf 0.35]
//	             # heterogeneous cost-performance frontier ($/req axis)
//	rmsim fleet  [-pools 8] [-shards 4] [-scorer affinity] [-clients 200]
//	             [-scenario spec.json]   # spec-driven time-varying load
//
// Every subcommand also takes -report (write a JSON snapshot of the
// metrics to this file on exit) and -metrics-addr (serve them while it
// runs), as experiments and tradebench do.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"perfpred/internal/bench"
	"perfpred/internal/fleet"
	"perfpred/internal/instrument"
	"perfpred/internal/lqn"
	"perfpred/internal/rm"
	"perfpred/internal/scenario"
	"perfpred/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Int64("seed", 1, "measurement seed")
	slack := fs.Float64("slack", 1.1, "slack multiplier for 'sweep'")
	from := fs.Float64("from", 1.1, "starting slack for 'slacks'")
	to := fs.Float64("to", 0, "ending slack for 'slacks'")
	step := fs.Float64("step", 0.1, "slack step for 'slacks'")
	pools := fs.Int("pools", 8, "server pools for 'fleet'")
	shards := fs.Int("shards", 4, "goroutines for 'fleet', and its engine count when it routes or replans (a static fleet with -replan 0 runs one engine per pool)")
	scorer := fs.String("scorer", "affinity",
		"routing scorer for 'fleet' ("+strings.Join(fleet.ScorerNames(), "|")+")")
	clients := fs.Int("clients", 200, "clients per pool for 'fleet'")
	duration := fs.Float64("duration", 30, "measured simulated seconds for 'fleet'")
	replan := fs.Float64("replan", 2, "replan period in simulated seconds for 'fleet' (0 disables)")
	scenarioPath := fs.String("scenario", "", "drive 'fleet' with a declarative workload spec (JSON file) instead of -clients")
	costS := fs.Float64("cost-s", 0.08, "$/hour of one AppServS for 'frontier'")
	costF := fs.Float64("cost-f", 0.17, "$/hour of one AppServF for 'frontier'")
	costVF := fs.Float64("cost-vf", 0.35, "$/hour of one AppServVF for 'frontier'")
	maxPer := fs.Int("max-per-arch", 4, "per-architecture server cap for 'frontier'")
	maxServers := fs.Int("max-servers", 8, "fleet size cap for 'frontier'")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	report := fs.String("report", "", "write a JSON metrics snapshot to this file on exit")
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatal(err)
	}
	writeReport, err := instrument.Flags("rmsim", *metricsAddr, *report)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := writeReport(); err != nil {
			fatal(err)
		}
	}()

	if cmd == "fleet" {
		// The in-loop study needs no §9.1 calibration: the replanner
		// predicts with warm-started LQN solves directly.
		runFleet(*pools, *shards, *scorer, *clients, *duration, *replan, *seed, *scenarioPath)
		return
	}

	// The bench suite owns the §9.1 calibration (truth = historical on
	// measurements, planner = hybrid).
	suite := bench.NewSuite(*seed)
	pred, truth, servers, err := suite.RMSetup()
	if err != nil {
		fatal(err)
	}
	loads := make([]int, 0, 16)
	for n := 1000; n <= 16000; n += 1000 {
		loads = append(loads, n)
	}

	// The study tool exists to sweep slack through and below 1 (figure
	// 7 runs all the way to 0), so it opts into sub-unity multipliers.
	opts := rm.Options{AllowDeflation: true}

	switch cmd {
	case "sweep":
		points, err := rm.SweepLoad(rm.CaseStudyShares(), servers, pred, truth, *slack, loads, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("slack=%.2f\nclients  fail%%   usage%%\n", *slack)
		for _, p := range points {
			fmt.Printf("%7d  %5.1f  %6.1f\n", p.TotalClients, p.SLAFailurePct, p.ServerUsagePct)
		}
	case "slacks":
		slacks, err := slackLevels(*from, *to, *step)
		if err != nil {
			fatal(err)
		}
		points, err := rm.SweepSlack(rm.CaseStudyShares(), servers, pred, truth, slacks, loads, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println("slack  avg-fail%  avg-usage%  avg-saving%")
		for _, p := range points {
			fmt.Printf("%5.2f  %8.2f  %9.1f  %10.2f\n", p.Slack, p.AvgFailPct, p.AvgUsagePct, p.AvgUsageSavingPct)
		}
	case "minzero":
		slacks := []float64{1.0, 1.025, 1.05, 1.075, 1.1, 1.15, 1.2, 1.3}
		s, err := rm.MinZeroFailureSlack(rm.CaseStudyShares(), servers, pred, truth, slacks, loads, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("minimum slack with 0%% SLA failures before 100%% usage: %.3f (paper: 1.1)\n", s)
	case "frontier":
		// Heterogeneous-architecture cost-performance frontier: every
		// architecture mix within the caps, capacity per Algorithm 1
		// with the calibrated planner, $/req as a first-class axis.
		points, err := rm.CostFrontier(casePrices(*costS, *costF, *costVF, *maxPer), pred,
			workload.ThinkTimeMean, rm.FrontierOptions{Slack: *slack, MaxServers: *maxServers})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("slack=%.2f max-servers=%d ($%.2f/$%.2f/$%.2f per hour)\n", *slack, *maxServers, *costS, *costF, *costVF)
		fmt.Println("  S  F VF  servers  capacity   $/hour  req/s  $/Mreq  frontier")
		for _, p := range points {
			mark := ""
			if !p.Dominated {
				mark = "*"
			}
			fmt.Printf("%3d %2d %2d  %7d  %8d  %7.2f  %5.0f  %6.3f  %8s\n",
				p.Counts[0], p.Counts[1], p.Counts[2], p.Servers, p.Capacity,
				p.HourlyCost, p.ThroughputPerSec, p.CostPerMReq, mark)
		}
	default:
		usage()
	}
}

// slackLevels lists the slack multipliers from `from` down to `to` in
// steps of `step`. All three are flag values, and a step that is not
// positive never reaches `to`.
func slackLevels(from, to, step float64) ([]float64, error) {
	const maxLevels = 1000
	if n := (from - to) / step; !(step > 0 && n >= 0 && n <= maxLevels) { // NaN fails every comparison
		return nil, fmt.Errorf("slacks: want -from >= -to and a positive -step giving at most %d levels, got -from %v -to %v -step %v",
			maxLevels, from, to, step)
	}
	var slacks []float64
	for v := from; v >= to-1e-9; v -= step {
		slacks = append(slacks, v)
	}
	return slacks, nil
}

// casePrices prices the three case-study architectures for the
// frontier sweep.
func casePrices(costS, costF, costVF float64, maxPer int) []rm.ArchPrice {
	return []rm.ArchPrice{
		{Arch: workload.AppServS(), HourlyCost: costS, Max: maxPer},
		{Arch: workload.AppServF(), HourlyCost: costF, Max: maxPer},
		{Arch: workload.AppServVF(), HourlyCost: costVF, Max: maxPer},
	}
}

// runFleet executes one in-loop fleet run: scorer-routed requests over
// a heterogeneous pool set, Algorithm 1 replanning inside the
// simulation against warm-started LQN predictions. With a scenario
// path the pools carry the spec's time-varying traffic instead of the
// fixed -clients closed population.
func runFleet(pools, shards int, scorerName string, clients int, duration, replan float64, seed int64, scenarioPath string) {
	sc, err := fleet.ScorerByName(scorerName)
	if err != nil {
		fatal(err)
	}
	archs := []workload.ServerArch{workload.AppServS(), workload.AppServF(), workload.AppServVF()}
	buy := clients / 10
	cfg := fleet.Config{
		Pools:   pools,
		Shards:  shards,
		Archs:   archs,
		DB:      workload.CaseStudyDB(),
		Demands: workload.CaseStudyDemands(),
		Load: workload.Workload{
			{Class: workload.BuyClass(0.150), Clients: buy},
			{Class: workload.BrowseClass(0.300), Clients: clients - buy},
		},
		Seed:         seed,
		WarmUp:       duration / 6,
		Duration:     duration,
		MaxRTSamples: 1000,
		Scorer:       sc,
	}
	if scenarioPath != "" {
		spec, err := scenario.Load(scenarioPath)
		if err != nil {
			fatal(err)
		}
		cfg.Load = nil
		cfg.Scenario = spec
	}
	if replan > 0 {
		pred, err := rm.NewLQNPredictor(archs, cfg.DB, cfg.Demands,
			workload.BrowseClass(0.300), lqn.Options{})
		if err != nil {
			fatal(err)
		}
		cfg.ReplanPeriod = replan
		cfg.Replanner = &rm.Replanner{Pred: pred}
		cfg.WarmupDelay = 0.5
		cfg.DrainDelay = 1
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		fatal(err)
	}
	remotePct, visited := 0.0, 0.0
	if res.Decisions > 0 {
		remotePct = 100 * float64(res.Remote) / float64(res.Decisions)
		visited = float64(res.Visited) / float64(res.Decisions)
	}
	load := cfg.Load
	if cfg.Scenario != nil {
		load = cfg.Scenario.Workload()
		fmt.Printf("scorer=%s pools=%d shards=%d scenario=%s seed=%d\n",
			res.Scorer, pools, shards, cfg.Scenario.Name, seed)
	} else {
		fmt.Printf("scorer=%s pools=%d shards=%d clients=%d (%d/pool) seed=%d\n",
			res.Scorer, pools, shards, clients*pools, clients, seed)
	}
	fmt.Printf("decisions=%d remote=%.1f%% visited/decision=%.1f barriers=%d windows=%d parks=%d replans=%d affinity-changes=%d wall=%.2fs\n",
		res.Decisions, remotePct, visited, res.Barriers, res.Windows, res.Parks, res.Replans, res.AffinityChanges, res.Wall.Seconds())
	if len(res.EstimatedClients) > 0 {
		fmt.Printf("last plan's client estimates:")
		for i, pop := range load {
			fmt.Printf(" %s=%d (configured %d)", pop.Class.Name, res.EstimatedClients[i], pop.Clients*pools)
		}
		fmt.Println()
	}
	fmt.Printf("mean RT %.1f ms  throughput %.1f/s  events %d\n",
		res.Trade.MeanRT*1000, res.Trade.Throughput, res.Trade.EventsFired)
	fmt.Println("class    completed  meanRT(ms)  goal(ms)")
	for _, pop := range load {
		c := res.Trade.PerClass[pop.Class.Name]
		fmt.Printf("%-8s %9d  %10.1f  %8.0f\n",
			pop.Class.Name, c.Completed, c.MeanRT*1000, pop.Class.GoalRT*1000)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rmsim sweep|slacks|minzero|frontier|fleet [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmsim:", err)
	os.Exit(1)
}
