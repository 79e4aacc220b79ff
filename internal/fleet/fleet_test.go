package fleet

import (
	"runtime"
	"sync/atomic"
	"testing"

	"perfpred/internal/lqn"
	"perfpred/internal/obs"
	"perfpred/internal/rm"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// testLoad is the per-pool workload every fleet test runs: a small buy
// class with a tight goal and a larger browse class with a loose one,
// both goal-bearing so the replanning tests can reuse it.
func testLoad() workload.Workload {
	return workload.Workload{
		{Class: workload.BuyClass(0.150), Clients: 6},
		{Class: workload.BrowseClass(0.600), Clients: 30},
	}
}

func testConfig(pools, shards int, scorer Scorer) Config {
	return Config{
		Pools:        pools,
		Shards:       shards,
		Archs:        []workload.ServerArch{workload.AppServS(), workload.AppServF(), workload.AppServVF()},
		DB:           workload.CaseStudyDB(),
		Demands:      workload.CaseStudyDemands(),
		Load:         testLoad(),
		Seed:         11,
		WarmUp:       2,
		Duration:     10,
		MaxRTSamples: 64,
		Scorer:       scorer,
	}
}

func testReplanner(t testing.TB) *rm.Replanner {
	t.Helper()
	pred, err := rm.NewLQNPredictor(
		[]workload.ServerArch{workload.AppServS(), workload.AppServF(), workload.AppServVF()},
		workload.CaseStudyDB(), workload.CaseStudyDemands(),
		workload.BrowseClass(0.300), lqn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &rm.Replanner{Pred: pred}
}

func withReplanning(t testing.TB, cfg Config) Config {
	cfg.ReplanPeriod = 2
	cfg.Replanner = testReplanner(t)
	cfg.WarmupDelay = 0.1
	cfg.DrainDelay = 0.4
	return cfg
}

// sameFleetResult asserts two runs of the same seeded config produced
// bit-identical trajectories and routing/replanning telemetry.
func sameFleetResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Trade.EventsFired != b.Trade.EventsFired {
		t.Errorf("%s: events fired %d vs %d", label, a.Trade.EventsFired, b.Trade.EventsFired)
	}
	if a.Trade.MeanRT != b.Trade.MeanRT {
		t.Errorf("%s: mean RT %v vs %v", label, a.Trade.MeanRT, b.Trade.MeanRT)
	}
	if a.Trade.Throughput != b.Trade.Throughput {
		t.Errorf("%s: throughput %v vs %v", label, a.Trade.Throughput, b.Trade.Throughput)
	}
	for name, ca := range a.Trade.PerClass {
		if cb := b.Trade.PerClass[name]; ca.Completed != cb.Completed || ca.MeanRT != cb.MeanRT {
			t.Errorf("%s: class %s completed/meanRT %d/%v vs %d/%v",
				label, name, ca.Completed, ca.MeanRT, cb.Completed, cb.MeanRT)
		}
	}
	if a.Decisions != b.Decisions || a.Remote != b.Remote || a.Visited != b.Visited {
		t.Errorf("%s: decisions/remote/visited %d/%d/%d vs %d/%d/%d",
			label, a.Decisions, a.Remote, a.Visited, b.Decisions, b.Remote, b.Visited)
	}
	if a.Barriers != b.Barriers || a.Windows != b.Windows {
		t.Errorf("%s: barriers/windows %d/%d vs %d/%d", label, a.Barriers, a.Windows, b.Barriers, b.Windows)
	}
	if a.Replans != b.Replans || a.AffinityChanges != b.AffinityChanges {
		t.Errorf("%s: replans %d/%d vs %d/%d", label, a.Replans, a.AffinityChanges, b.Replans, b.AffinityChanges)
	}
	if len(a.EstimatedClients) != len(b.EstimatedClients) {
		t.Errorf("%s: estimate lengths %d vs %d", label, len(a.EstimatedClients), len(b.EstimatedClients))
	} else {
		for i := range a.EstimatedClients {
			if a.EstimatedClients[i] != b.EstimatedClients[i] {
				t.Errorf("%s: estimate[%d] %d vs %d", label, i, a.EstimatedClients[i], b.EstimatedClients[i])
			}
		}
	}
}

func TestFleetConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Pools = 1 },
		func(c *Config) { c.Archs = nil },
		func(c *Config) { c.WarmupDelay = -1 },
		func(c *Config) { c.DrainDelay = -1 },
		func(c *Config) { c.ReplanPeriod = -1 },
		func(c *Config) { c.ReplanPeriod = 1 }, // no Replanner
		func(c *Config) {
			c.ReplanPeriod, c.Replanner = 1, testReplanner(t)
			c.Load = workload.TypicalWorkload(10) // GoalRT 0
		},
		func(c *Config) {
			c.ReplanPeriod, c.Replanner = 1, testReplanner(t)
			c.Load = workload.Workload{
				{Class: workload.BuyClass(0.1), Clients: 5},
				{Class: workload.BuyClass(0.2), Clients: 5}, // duplicate name
			}
		},
	}
	for i, mutate := range bad {
		cfg := testConfig(4, 2, nil)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// Routing decisions must be invariant under the pool→shard mapping:
// the same seeded config produces bit-identical results at 1, 2 and 4
// shards, for every scorer. A routed fleet ends every window at a
// barrier; a Static one, whose pools never meet, takes none and runs
// one window per Advance.
func TestFleetDeterministicAcrossShards(t *testing.T) {
	for _, scorer := range []Scorer{Static{}, QueueDepth{}, LeastRT{}, ClassAffinity{}, Weighted{}} {
		ref, err := Run(testConfig(4, 1, scorer))
		if err != nil {
			t.Fatal(err)
		}
		if ref.Trade.Throughput <= 0 {
			t.Fatalf("%s: reference run measured nothing", scorer.Name())
		}
		if ref.Decisions == 0 {
			t.Fatalf("%s: no routing decisions recorded", scorer.Name())
		}
		if ref.Parks != 0 {
			t.Errorf("%s: %d parks on one shard, which waits for nobody", scorer.Name(), ref.Parks)
		}
		wantBarriers := ref.Windows
		if _, static := scorer.(Static); static {
			wantBarriers = 0
			if ref.Windows != 2 {
				t.Errorf("static: %d windows, want one per Advance (2)", ref.Windows)
			}
		} else if ref.Barriers == 0 {
			t.Errorf("%s: no barriers", scorer.Name())
		}
		if ref.Barriers != wantBarriers {
			t.Errorf("%s: %d barriers over %d windows, want %d", scorer.Name(), ref.Barriers, ref.Windows, wantBarriers)
		}
		for _, shards := range []int{2, 4} {
			got, err := Run(testConfig(4, shards, scorer))
			if err != nil {
				t.Fatal(err)
			}
			sameFleetResult(t, scorer.Name(), ref, got)
			// Parks is the host's figure and deliberately not compared;
			// its bound is one sleep per goroutine per window.
			if limit := uint64(shards) * (got.Windows + 1); got.Parks > limit {
				t.Errorf("%s: %d parks over %d windows on %d shards, limit %d",
					scorer.Name(), got.Parks, got.Windows, shards, limit)
			}
		}
	}
}

// The in-loop replanner reads only barrier-synced state, so replan
// sequences — and the trajectories they steer — are also invariant
// under the shard mapping.
func TestFleetReplanDeterministicAcrossShards(t *testing.T) {
	ref, err := Run(withReplanning(t, testConfig(4, 1, ClassAffinity{})))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Replans == 0 {
		t.Fatal("reference run never replanned")
	}
	for _, shards := range []int{2, 4} {
		got, err := Run(withReplanning(t, testConfig(4, shards, ClassAffinity{})))
		if err != nil {
			t.Fatal(err)
		}
		sameFleetResult(t, "replan", ref, got)
	}
}

// Re-running the identical config must be exactly reproducible.
func TestFleetRunReproducible(t *testing.T) {
	cfg := withReplanning(t, testConfig(3, 3, Weighted{}))
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameFleetResult(t, "rerun", a, b)
}

// Run collects the fleet it built before it returns: the caller's heap
// holds the result, not the fleet's pools, clients and events. Left
// for the collector's pacing, that garbage would lie under the next
// fleet the caller builds, and the process would peak at one fleet's
// heap or nearly two depending on where a cycle fell.
func TestRunCollectsItsFleet(t *testing.T) {
	cfg := testConfig(64, 2, Static{})
	cfg.Duration = 1
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(res)
	built := after.TotalAlloc - before.TotalAlloc
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("run allocated %d bytes, %d still on the heap after it", built, held)
	if held > int64(built/10) {
		t.Fatalf("%d of the run's %d allocated bytes are still on the heap after Run, want at most a tenth", held, built)
	}
}

// The Static scorer serves every request locally, so a fleet run with
// it must be trajectory-identical to the plain sharded trade run of
// the same config with no router installed — pinning the router seam
// as behaviour-preserving when it makes no remote decisions.
func TestFleetStaticMatchesRouterlessRun(t *testing.T) {
	cfg := testConfig(4, 2, Static{})
	fres, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fres.Remote != 0 {
		t.Fatalf("static scorer made %d remote decisions", fres.Remote)
	}
	tres, err := trade.Run(trade.Config{
		Server:       cfg.Archs[0],
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
	})
	if err != nil {
		t.Fatal(err)
	}
	if fres.Trade.EventsFired != tres.EventsFired {
		t.Errorf("events fired %d vs routerless %d", fres.Trade.EventsFired, tres.EventsFired)
	}
	if fres.Trade.MeanRT != tres.MeanRT || fres.Trade.Throughput != tres.Throughput {
		t.Errorf("meanRT/throughput %v/%v vs routerless %v/%v",
			fres.Trade.MeanRT, fres.Trade.Throughput, tres.MeanRT, tres.Throughput)
	}
}

// countingRouter shadows every PoolRouter callback with an independent
// atomic tally, so the Router's internal bookkeeping can be checked
// against a second source of truth.
type countingRouter struct {
	inner     *Router
	routed    []atomic.Int64 // by destination pool
	started   []atomic.Int64
	completed []atomic.Int64
}

func (c *countingRouter) Route(origin, class int) int {
	dst := c.inner.Route(origin, class)
	c.routed[dst].Add(1)
	return dst
}

func (c *countingRouter) Started(pool, class int) {
	c.started[pool].Add(1)
	c.inner.Started(pool, class)
}

func (c *countingRouter) Completed(pool, class int, rt float64) {
	c.completed[pool].Add(1)
	c.inner.Completed(pool, class, rt)
}

func (c *countingRouter) Local() bool { return c.inner.Local() }

// Conservation property: per pool, started − completed equals the
// in-flight count, independently tallied callbacks match the Router's
// counters, and no request is lost between a routing decision and its
// service-side admission (beyond hops still in the network).
func TestFleetConservationProperty(t *testing.T) {
	cfg := testConfig(4, 2, QueueDepth{})
	caps := make([]int, cfg.Pools)
	for i := range caps {
		caps[i] = cfg.Archs[i%len(cfg.Archs)].MPL
	}
	inner := NewRouter(QueueDepth{}, caps, len(cfg.Load))
	cr := &countingRouter{
		inner:     inner,
		routed:    make([]atomic.Int64, cfg.Pools),
		started:   make([]atomic.Int64, cfg.Pools),
		completed: make([]atomic.Int64, cfg.Pools),
	}
	run, err := trade.NewSharded(trade.Config{
		Server:       cfg.Archs[0],
		PoolArchs:    cfg.Archs,
		DB:           cfg.DB,
		Demands:      cfg.Demands,
		Load:         cfg.Load,
		Seed:         cfg.Seed,
		WarmUp:       cfg.WarmUp,
		Duration:     1e6, // driven manually
		MaxRTSamples: cfg.MaxRTSamples,
		Pools:        cfg.Pools,
		Shards:       cfg.Shards,
		Router:       cr,
		BarrierHook:  func(float64) { inner.Sync() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()

	totalClients := 0
	for _, pop := range cfg.Load {
		totalClients += pop.Clients * cfg.Pools
	}
	var until float64
	for step := 0; step < 5; step++ {
		until += 3
		run.Advance(until)
		var sumStarted, sumInflight int64
		for p := 0; p < cfg.Pools; p++ {
			started, completed, inflight := inner.PoolTotals(p)
			if int64(started) != cr.started[p].Load() || int64(completed) != cr.completed[p].Load() {
				t.Fatalf("step %d pool %d: router counted %d/%d, independent tally %d/%d",
					step, p, started, completed, cr.started[p].Load(), cr.completed[p].Load())
			}
			if completed > started {
				t.Fatalf("step %d pool %d: completed %d > started %d", step, p, completed, started)
			}
			if inflight != int(started-completed) {
				t.Fatalf("step %d pool %d: inflight %d != started−completed %d",
					step, p, inflight, started-completed)
			}
			if inflight < 0 || inflight > totalClients {
				t.Fatalf("step %d pool %d: in-flight %d outside [0, %d]", step, p, inflight, totalClients)
			}
			sumStarted += int64(started)
			sumInflight += int64(inflight)
		}
		var sumRouted int64
		for p := range cr.routed {
			sumRouted += cr.routed[p].Load()
		}
		// Every decision is either admitted at its pool or still hopping
		// across the network; hops are bounded by the client population.
		if hops := sumRouted - sumStarted; hops < 0 || hops > int64(totalClients) {
			t.Fatalf("step %d: %d routed, %d admitted (%d in transit?)", step, sumRouted, sumStarted, hops)
		}
		if sumInflight > int64(totalClients) {
			t.Fatalf("step %d: fleet in-flight %d exceeds %d clients", step, sumInflight, totalClients)
		}
	}
	decisions, _, _ := inner.totals()
	if decisions == 0 {
		t.Fatal("no routing decisions recorded")
	}
}

// Every scorer routes without allocating: a fully routed request — the
// scorer's pick over 64 primed pools, the admission and completion
// counters — and the barrier sync after every 1024 of them cost no
// heap object, whichever scorer picks.
func TestEveryScorerRoutesWithoutAllocating(t *testing.T) {
	const npools, nclasses = 64, 3
	caps := make([]int, npools)
	for i := range caps {
		caps[i] = 50 + 10*(i%7)
	}
	for _, name := range ScorerNames() {
		scorer, err := ScorerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRouter(scorer, caps, nclasses)
		// Uneven per-pool state, so the scorers scan real signals
		// instead of all-zero arrays.
		for p := 0; p < npools; p++ {
			for k := 0; k < (p*13)%37; k++ {
				r.Started(p, k%nclasses)
			}
			r.Completed(p, 0, 0.05+0.001*float64(p))
			r.Started(p, 0)
		}
		r.Sync()
		i := 0
		allocs := testing.AllocsPerRun(8, func() {
			for end := i + 1024; i < end; i++ {
				cls := i % nclasses
				dst := r.Route(i%npools, cls)
				r.Started(dst, cls)
				r.Completed(dst, cls, 0.05)
			}
			r.Sync()
		})
		if allocs != 0 {
			t.Errorf("scorer %s allocates %v objects per 1024 routed requests and their sync, want 0", name, allocs)
		}
	}
}

// Acceptance criterion: with metrics enabled, the steady-state routing
// loop — scorer picks, counter updates, barrier syncs — allocates
// nothing per advance.
func TestFleetSteadyStateZeroAllocWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)

	cfg := testConfig(4, 2, ClassAffinity{})
	caps := make([]int, cfg.Pools)
	for i := range caps {
		caps[i] = cfg.Archs[i%len(cfg.Archs)].MPL
	}
	router := NewRouter(ClassAffinity{}, caps, len(cfg.Load))
	run, err := trade.NewSharded(trade.Config{
		Server:       cfg.Archs[0],
		PoolArchs:    cfg.Archs,
		DB:           cfg.DB,
		Demands:      cfg.Demands,
		Load:         cfg.Load,
		Seed:         cfg.Seed,
		WarmUp:       cfg.WarmUp,
		Duration:     1e6, // driven manually
		MaxRTSamples: cfg.MaxRTSamples,
		Pools:        cfg.Pools,
		Shards:       cfg.Shards,
		Router:       router,
		BarrierHook:  func(float64) { router.Sync() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	run.Advance(cfg.WarmUp)
	run.BeginMeasurement()
	until := cfg.WarmUp + 60 // fill sample reservoirs and scratch pools
	run.Advance(until)
	allocs := testing.AllocsPerRun(50, func() {
		until += 2
		run.Advance(until)
	})
	if allocs != 0 {
		t.Fatalf("fleet routing loop allocates %v objects per 2 simulated seconds, want 0", allocs)
	}
	decisions, remotes, _ := router.totals()
	if decisions == 0 || remotes == 0 {
		t.Fatalf("loop routed nothing (decisions %d, remote %d)", decisions, remotes)
	}
	if res := run.Collect(); res.Throughput <= 0 {
		t.Fatal("empty collection")
	}
	if snap := reg.Snapshot(); snap.Counters["trade_requests_completed"] == 0 {
		t.Fatal("metrics enabled but trade_requests_completed stayed zero")
	}
}

// The in-loop resource manager must actually steer the run: plans are
// cut on the configured period, affinity edits mature through the
// warm-up/drain pipeline, and the Little's-law estimates land near the
// configured populations once the fleet is in steady state.
func TestFleetReplanTakesEffect(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)

	cfg := withReplanning(t, testConfig(4, 2, ClassAffinity{}))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantReplans := int((cfg.WarmUp + cfg.Duration) / cfg.ReplanPeriod)
	if res.Replans < wantReplans-1 || res.Replans > wantReplans+1 {
		t.Errorf("replans = %d, want about %d", res.Replans, wantReplans)
	}
	if len(res.ReplanLatencies) != res.Replans {
		t.Errorf("%d latencies for %d replans", len(res.ReplanLatencies), res.Replans)
	}
	if res.AffinityChanges == 0 {
		t.Error("no affinity changes ever applied")
	}
	if len(res.EstimatedClients) != len(cfg.Load) {
		t.Fatalf("estimates for %d classes, want %d", len(res.EstimatedClients), len(cfg.Load))
	}
	for i, est := range res.EstimatedClients {
		configured := cfg.Load[i].Clients * cfg.Pools
		if est < 1 || est > 3*configured {
			t.Errorf("class %d estimate %d implausible against configured %d", i, est, configured)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["fleet_replans"] != uint64(res.Replans) {
		t.Errorf("fleet_replans metric %d, want %d", snap.Counters["fleet_replans"], res.Replans)
	}
	if snap.Counters["fleet_routing_decisions"] != res.Decisions {
		t.Errorf("fleet_routing_decisions metric %d, want %d",
			snap.Counters["fleet_routing_decisions"], res.Decisions)
	}
}

func TestScorerByNameRoundTrip(t *testing.T) {
	for _, name := range ScorerNames() {
		s, err := ScorerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Errorf("ScorerByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := ScorerByName("nope"); err == nil {
		t.Error("unknown scorer accepted")
	}
}

func TestPoolFromServerName(t *testing.T) {
	for i := 0; i < 12; i++ {
		got, ok := poolFromServerName(rm.PoolServerName(i), 12)
		if !ok || got != i {
			t.Errorf("round trip pool %d: got %d, %v", i, got, ok)
		}
	}
	for _, bad := range []string{"", "p", "q3", "p-1", "p3x", "p12"} {
		if _, ok := poolFromServerName(bad, 12); ok {
			t.Errorf("%q parsed as a pool name", bad)
		}
	}
}
