// Package fleet is the in-loop fleet resource manager: an event-driven
// layer over the sharded trade simulator (internal/trade, internal/sim)
// in which every request is routed across heterogeneous server pools
// by a pluggable scorer over incrementally maintained per-pool state,
// while the paper's Algorithm 1 resource manager (internal/rm) replans
// the class→pool affinity periodically from inside the simulation —
// the north-star system the ROADMAP describes.
//
// The layer has three moving parts. The Router (a trade.PoolRouter) is
// the zero-allocation hot path: O(1) counters on arrival/completion,
// flat index-addressed arrays, and scorers that read only barrier-
// synced snapshots plus origin-local in-window corrections, so seeded
// runs stay bit-identical at any shard count; a pick descends a
// per-class tournament tree built at the barrier instead of scanning
// every pool. The replanState runs at
// window barriers: it estimates live per-class client totals by
// Little's law, snapshots the pools, cuts a plan via rm.Replanner
// (Algorithm 1 over retained warm-started LQN solves) and phases the
// affinity diff in with warm-up/drain delays. Run wires both into a
// trade.ShardedRun and drives the measurement.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"perfpred/internal/obs"
	"perfpred/internal/rm"
	"perfpred/internal/scenario"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// Config describes one fleet run.
type Config struct {
	// Pools is the number of server pools (each one application server
	// plus its own database replica, per the sharded trade model).
	// At least 2.
	Pools int
	// Shards is the number of goroutines that advance the fleet; 0 or
	// 1 runs it on the calling goroutine. A fleet that routes or
	// replans runs its pools on Shards engines, windowed at the hop
	// latency. A Static fleet with no replanner needs no barriers: each
	// pool gets an engine of its own, and the Shards goroutines run
	// whole pools one after another.
	Shards int
	// Archs assigns pool architectures round-robin: pool i runs
	// Archs[i mod len(Archs)].
	Archs []workload.ServerArch
	// DB is each pool's database server.
	DB workload.DBServer
	// Demands maps request types to their per-request demands.
	Demands map[workload.RequestType]workload.Demand
	// Load is the per-pool workload: every pool carries these
	// populations (fleet totals are per-class Clients × Pools). Class
	// GoalRT values drive the replanner.
	Load workload.Workload
	// Scenario, when non-nil, replaces Load with a compiled declarative
	// scenario (internal/scenario): every pool carries the scenario's
	// cohorts, so the fleet replans under the time-varying load the
	// spec declares. The router and replanner see the scenario's
	// derived workload (stationary rates for open cohorts). Mutually
	// exclusive with Load.
	Scenario *scenario.Compiled
	// Seed fixes all random streams.
	Seed int64
	// WarmUp is the simulated ramp (seconds) discarded before
	// measurement.
	WarmUp float64
	// Duration is the measured window (seconds).
	Duration float64
	// MaxRTSamples bounds per-class sample buffers (0 = trade default).
	MaxRTSamples int

	// Scorer picks the serving pool per request; nil selects Static
	// (every client stays on its own pool).
	Scorer Scorer

	// ReplanPeriod is the simulated seconds between resource-manager
	// replans; 0 disables replanning (the affinity matrix stays
	// all-allowed).
	ReplanPeriod float64
	// Replanner cuts the plans; required when ReplanPeriod > 0.
	Replanner *rm.Replanner
	// WarmupDelay is the simulated delay before a pool newly granted to
	// a class starts accepting its traffic (server warm-up).
	WarmupDelay float64
	// DrainDelay is the simulated delay before a pool revoked from a
	// class stops accepting its traffic (connection draining).
	DrainDelay float64
}

// validate reports fleet-level problems; the underlying trade.Config
// validation covers the rest.
func (c Config) validate() error {
	if c.Pools < 2 {
		return errors.New("fleet: need at least two pools")
	}
	if len(c.Archs) == 0 {
		return errors.New("fleet: need at least one architecture")
	}
	if c.WarmupDelay < 0 || c.DrainDelay < 0 {
		return errors.New("fleet: warm-up and drain delays must be non-negative")
	}
	if c.ReplanPeriod < 0 {
		return errors.New("fleet: replan period must be non-negative")
	}
	if c.Scenario != nil && len(c.Load) > 0 {
		return errors.New("fleet: Scenario and Load are mutually exclusive")
	}
	if c.ReplanPeriod > 0 {
		if c.Replanner == nil {
			return errors.New("fleet: ReplanPeriod needs a Replanner")
		}
		load := c.Load
		if c.Scenario != nil {
			load = c.Scenario.Workload()
		}
		seen := make(map[string]bool, len(load))
		for _, pop := range load {
			if pop.Class.GoalRT <= 0 {
				return fmt.Errorf("fleet: class %q needs a positive GoalRT to be replanned", pop.Class.Name)
			}
			if seen[pop.Class.Name] {
				return fmt.Errorf("fleet: duplicate class name %q (replanning needs unique names)", pop.Class.Name)
			}
			seen[pop.Class.Name] = true
		}
	}
	return nil
}

// Result is one fleet run's outcome.
type Result struct {
	// Trade is the merged fleet measurement (per-class response times,
	// namespaced per-server rows, events fired).
	Trade *trade.Result
	// Scorer is the scorer the run routed with.
	Scorer string
	// Decisions counts routing decisions (closed-client requests that
	// consulted the scorer); Remote of them left the origin pool.
	Decisions, Remote uint64
	// Visited counts the tournament-tree nodes the decisions examined
	// (a full scan would examine Pools per decision; Static examines
	// none). Like Decisions it is a function of the seeded trajectory.
	Visited uint64
	// Barriers counts executed window barriers (sync + hook runs). A
	// Static fleet with no replanner has none: its pools never meet, so
	// it runs one barrier-free window per Advance.
	Barriers uint64
	// Windows counts the windows the coordinator fanned out to its
	// shards: Barriers, plus one per Advance of a barrier-free fleet.
	// Like Barriers it is the same at every shard count.
	Windows uint64
	// Parks counts the barrier waits that outlasted the worker pool's
	// spin-and-yield budget and put a goroutine to sleep. It is the one
	// host-dependent figure here besides Wall: Parks near Windows means
	// the hand-off has degenerated into sleeping (an oversubscribed or
	// throttled machine), Parks ≪ Windows that the cores stayed awake.
	Parks uint64
	// Replans counts plans cut; ReplanLatencies holds each plan's
	// wall-clock solve time in cut order.
	Replans         int
	ReplanLatencies []time.Duration
	// AffinityChanges counts applied affinity-matrix edits (after
	// warm-up/drain maturation).
	AffinityChanges int
	// EstimatedClients is the last replan's per-class Little's-law
	// client estimates, Load order; nil when replanning is off.
	EstimatedClients []int
	// Wall is the run's wall-clock duration, the collection of the
	// fleet's memory at its end included.
	Wall time.Duration
}

// Run executes one fleet measurement: build the router and (when
// configured) the in-loop replanner, wire them into a sharded trade
// run via the router and barrier-hook seams, warm up, measure, merge.
//
// The fleet is garbage once measured, tens of megabytes of pools,
// clients, requests and events, and Run collects it before it returns.
// Left to the collector's pacing, the caller's next allocations (often
// the next fleet) pile onto it until a cycle falls, and where that
// cycle falls against the run decides whether the process peaks at one
// fleet's heap or nearly two: back-to-back 625 × 400 routed fleets peak
// anywhere from 68 to 124 MB RSS uncollected and at 66 MB collected
// (2-core x86-64, Go 1.24). The collection marks only what outlives
// the fleet; it takes ≈ 5 ms there and is counted in Wall.
func Run(cfg Config) (*Result, error) {
	res, err := run(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	runtime.GC()
	res.Wall += time.Since(start)
	return res, nil
}

func run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Scenario != nil {
		// Materialise the scenario's derived workload into the local copy
		// so router sizing and the replanner's Little's-law bookkeeping
		// work off the same class list the pools register; the trade
		// config below still carries the scenario itself, which drives
		// the actual (time-varying) arrivals.
		cfg.Load = cfg.Scenario.Workload()
	}
	scorer := cfg.Scorer
	if scorer == nil {
		scorer = Static{}
	}
	caps := make([]int, cfg.Pools)
	for i := range caps {
		caps[i] = cfg.Archs[i%len(cfg.Archs)].MPL
	}
	router := NewRouter(scorer, caps, len(cfg.Load))

	var rs *replanState
	if cfg.ReplanPeriod > 0 {
		rs = newReplanState(cfg.Replanner, router, &cfg)
	}
	// The barrier hook runs only where something reads the barrier
	// state: a scorer that can leave the origin pool, or a replanner.
	// Without it a Static fleet's pools never meet, and the run takes
	// no window barriers at all.
	var hook func(now float64)
	if !router.Local() || rs != nil {
		hook = func(now float64) {
			router.Sync()
			if rs != nil {
				rs.step(now)
			}
		}
	}

	tcfg := trade.Config{
		Server:       cfg.Archs[0], // placeholder; PoolArchs overrides every pool
		PoolArchs:    cfg.Archs,
		DB:           cfg.DB,
		Demands:      cfg.Demands,
		Load:         cfg.Load,
		Seed:         cfg.Seed,
		WarmUp:       cfg.WarmUp,
		Duration:     cfg.Duration,
		MaxRTSamples: cfg.MaxRTSamples,
		Pools:        cfg.Pools,
		Shards:       cfg.Shards,
		Router:       router,
		BarrierHook:  hook,
	}
	if cfg.Scenario != nil {
		tcfg.Load = nil
		tcfg.Scenario = cfg.Scenario
	}
	start := time.Now()
	run, err := trade.NewSharded(tcfg)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	run.Advance(cfg.WarmUp)
	run.BeginMeasurement()
	run.Advance(cfg.WarmUp + cfg.Duration)
	if rs != nil && rs.err != nil {
		return nil, fmt.Errorf("fleet: in-loop replan failed: %w", rs.err)
	}
	tres := run.Collect()

	decisions, remotes, visited := router.totals()
	res := &Result{
		Trade:     tres,
		Scorer:    scorer.Name(),
		Decisions: decisions,
		Remote:    remotes,
		Visited:   visited,
		Windows:   run.Windows(),
		Parks:     run.Parks(),
		Wall:      time.Since(start),
	}
	if hook != nil {
		// The coordinator calls the hook once after every window it
		// fans out, and at no other time.
		res.Barriers = res.Windows
	}
	if rs != nil {
		res.Replans = rs.replans
		res.ReplanLatencies = rs.latencies
		res.AffinityChanges = rs.pendingApplied
		res.EstimatedClients = append([]int(nil), rs.estimates...)
	}
	flushMetrics(res)
	return res, nil
}

// The fleet layer's process-wide counters, summed over every run. The
// Router keeps plain per-origin and per-pool counters (each written
// only from its owning shard goroutine) and Run flushes the totals once
// per run, so the routing hot path stays atomic-free and
// allocation-free with metrics bound.
var (
	fleetRoutingDecisions = obs.DeclareCounter("fleet_routing_decisions") // routing decisions made
	fleetRemoteRoutes     = obs.DeclareCounter("fleet_remote_routes")     // decisions that left the origin pool
	fleetPoolsVisited     = obs.DeclareCounter("fleet_pools_visited")     // tree nodes the decisions examined
	fleetBarriers         = obs.DeclareCounter("fleet_barriers")          // window barriers executed
	fleetReplans          = obs.DeclareCounter("fleet_replans")           // resource-manager plans cut in-loop
	fleetAffinityChanges  = obs.DeclareCounter("fleet_affinity_changes")  // affinity edits applied after warm-up/drain
	fleetReplanSeconds    = obs.DeclareHistogram("fleet_replan_seconds",  // wall-clock plan latency
		1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1)
)

// flushMetrics publishes one run's totals, once, at the end of Run.
func flushMetrics(res *Result) {
	if !fleetRoutingDecisions.Bound() {
		return
	}
	fleetRoutingDecisions.Add(res.Decisions)
	fleetRemoteRoutes.Add(res.Remote)
	fleetPoolsVisited.Add(res.Visited)
	fleetBarriers.Add(res.Barriers)
	fleetReplans.Add(uint64(res.Replans))
	fleetAffinityChanges.Add(uint64(res.AffinityChanges))
	for _, d := range res.ReplanLatencies {
		fleetReplanSeconds.Observe(d.Seconds())
	}
}
