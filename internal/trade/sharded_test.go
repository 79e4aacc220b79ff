package trade

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"perfpred/internal/obs"
	"perfpred/internal/scenario"
	"perfpred/internal/sim"
	"perfpred/internal/workload"
)

// everyNth is a deterministic test PoolRouter: each pool sends every
// nth request it issues to its right-hand neighbour and serves the rest
// itself. Route touches only the origin's own counters and Started and
// Completed only the serving pool's, per the threading contract.
type everyNth struct {
	n                                  int
	issued, remote, started, completed []int // per pool
}

func newEveryNth(n, pools int) *everyNth {
	return &everyNth{n: n, issued: make([]int, pools), remote: make([]int, pools),
		started: make([]int, pools), completed: make([]int, pools)}
}

func (r *everyNth) Route(origin, class int) int {
	r.issued[origin]++
	if r.issued[origin]%r.n == 0 {
		r.remote[origin]++
		return (origin + 1) % len(r.issued)
	}
	return origin
}
func (r *everyNth) Started(pool, class int)               { r.started[pool]++ }
func (r *everyNth) Completed(pool, class int, rt float64) { r.completed[pool]++ }
func (r *everyNth) Local() bool                           { return false }

// shardedConfig is a small fleet; crossEvery > 0 attaches a fresh
// everyNth router, so that share of the traffic rides the cross-pool
// hop (a router is stateful: build one config per run).
func shardedConfig(pools, shards, crossEvery int) Config {
	cfg := Config{
		Server:       workload.AppServF(),
		DB:           workload.CaseStudyDB(),
		Demands:      workload.CaseStudyDemands(),
		Load:         workload.MixedWorkload(200, 0.25),
		Seed:         31,
		WarmUp:       10,
		Duration:     120,
		MaxRTSamples: 64,
		Pools:        pools,
		Shards:       shards,
	}
	if crossEvery > 0 {
		cfg.Router = newEveryNth(crossEvery, pools)
	}
	return cfg
}

func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.EventsFired != b.EventsFired {
		t.Errorf("%s: EventsFired %d != %d", label, a.EventsFired, b.EventsFired)
	}
	if a.MeanRT != b.MeanRT || a.Throughput != b.Throughput {
		t.Errorf("%s: meanRT/X %v/%v != %v/%v", label, a.MeanRT, a.Throughput, b.MeanRT, b.Throughput)
	}
	if a.AppUtilization != b.AppUtilization || a.DBUtilization != b.DBUtilization {
		t.Errorf("%s: utilisation %v/%v != %v/%v", label, a.AppUtilization, a.DBUtilization, b.AppUtilization, b.DBUtilization)
	}
	if len(a.PerClass) != len(b.PerClass) {
		t.Fatalf("%s: class count %d != %d", label, len(a.PerClass), len(b.PerClass))
	}
	for name, ca := range a.PerClass {
		cb := b.PerClass[name]
		if ca.Completed != cb.Completed || ca.MeanRT != cb.MeanRT || ca.RTStdDev != cb.RTStdDev {
			t.Errorf("%s: class %s (%d, %v, %v) != (%d, %v, %v)", label, name,
				ca.Completed, ca.MeanRT, ca.RTStdDev, cb.Completed, cb.MeanRT, cb.RTStdDev)
		}
		if len(ca.Samples) != len(cb.Samples) {
			t.Errorf("%s: class %s sample count %d != %d", label, name, len(ca.Samples), len(cb.Samples))
			continue
		}
		for i := range ca.Samples {
			if ca.Samples[i] != cb.Samples[i] {
				t.Errorf("%s: class %s sample %d: %v != %v", label, name, i, ca.Samples[i], cb.Samples[i])
				break
			}
		}
	}
	if len(a.PerServer) != len(b.PerServer) {
		t.Fatalf("%s: server count %d != %d", label, len(a.PerServer), len(b.PerServer))
	}
	for i := range a.PerServer {
		sa, sb := a.PerServer[i], b.PerServer[i]
		if sa != sb {
			t.Errorf("%s: server %d %+v != %+v", label, i, sa, sb)
		}
	}
}

// Satellite: the same seeded fleet scenario must produce IDENTICAL
// aggregate statistics at any shard count — pools own their state,
// streams are keyed by pool index, and cross-pool messages carry
// mapping-invariant ordering keys, so 1, 2 and 4 shards replay the
// same trajectory.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	for _, crossEvery := range []int{0, 4} {
		ref, err := Run(shardedConfig(4, 1, crossEvery))
		if err != nil {
			t.Fatal(err)
		}
		if ref.Throughput <= 0 {
			t.Fatal("reference run measured nothing")
		}
		for _, shards := range []int{2, 4} {
			got, err := Run(shardedConfig(4, shards, crossEvery))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("cross every %d/%d shards", crossEvery, shards), ref, got)
		}
	}
}

// Re-running the identical sharded config must be exactly reproducible
// (the coordinator introduces no scheduling nondeterminism).
func TestShardedRunReproducible(t *testing.T) {
	a, err := Run(shardedConfig(3, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shardedConfig(3, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rerun", a, b)
}

// Without a router every pool is an independent replica: pool i's
// trajectory must be EXACTLY the one-pool run seeded with
// SplitSeed(seed, i) — the fleet is the sum of one-pool runs. This
// pins a fleet's pools to the one-pool run's behaviour, and, since
// every run shares one collector, is the proof that the fleet
// reduction of n pools is the one-pool reduction of each:
// per-server rows, samples and utilisations equal to the bit.
func TestShardedPoolsMatchLegacyRuns(t *testing.T) {
	cfg := shardedConfig(2, 2, 0)
	fleet, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.PerServer) != 2 {
		t.Fatalf("fleet has %d server rows, want 2", len(fleet.PerServer))
	}
	var legacyFired uint64
	var legacyDB, legacyHeld float64
	legacyCompleted := map[string]int{}
	legacySamples := map[string][]float64{}
	for i := 0; i < 2; i++ {
		lcfg := cfg
		lcfg.Pools, lcfg.Shards = 0, 0
		lcfg.Seed = sim.SplitSeed(cfg.Seed, uint64(i))
		lr, err := Run(lcfg)
		if err != nil {
			t.Fatal(err)
		}
		legacyFired += lr.EventsFired
		legacyDB += lr.DBUtilization
		legacyHeld += lr.MeanAppSlotsHeld
		for name, c := range lr.PerClass {
			legacyCompleted[name] += c.Completed
			legacySamples[name] = append(legacySamples[name], c.Samples...)
		}
		want := lr.PerServer[0]
		want.Name = fmt.Sprintf("p%d/%s", i, want.Name)
		if got := fleet.PerServer[i]; got != want {
			t.Errorf("pool %d server row %+v, legacy run %+v", i, got, want)
		}
	}
	if fleet.EventsFired != legacyFired {
		t.Errorf("fleet fired %d events, legacy pair fired %d", fleet.EventsFired, legacyFired)
	}
	if fleet.DBUtilization != legacyDB/2 {
		t.Errorf("fleet db utilisation %v, legacy pair mean %v", fleet.DBUtilization, legacyDB/2)
	}
	if fleet.MeanAppSlotsHeld != legacyHeld {
		t.Errorf("fleet slots held %v, legacy pair %v", fleet.MeanAppSlotsHeld, legacyHeld)
	}
	for name, want := range legacyCompleted {
		got := fleet.PerClass[name]
		if got.Completed != want {
			t.Errorf("class %s completed %d, legacy pair %d", name, got.Completed, want)
		}
		if !reflect.DeepEqual(got.Samples, legacySamples[name]) {
			t.Errorf("class %s samples differ from the legacy pair's, concatenated", name)
		}
	}
}

// Routed-away requests must actually flow and be measured: with every
// second request crossing pools the per-class completions stay near
// the isolated fleet's (every forwarded request still completes), and
// response times grow by the two network hops on the remote share.
func TestShardedRemoteRequestsServed(t *testing.T) {
	base, err := Run(shardedConfig(2, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Run(shardedConfig(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if remote.Throughput <= 0.5*base.Throughput {
		t.Fatalf("remote fleet throughput %v collapsed vs isolated %v", remote.Throughput, base.Throughput)
	}
	// Half the requests pay 2 × ShardLatency of pure network time; the
	// fleet mean must reflect most of that.
	if remote.MeanRT < base.MeanRT+0.8*ShardLatency {
		t.Fatalf("remote fleet meanRT %v not above isolated %v by the added hops", remote.MeanRT, base.MeanRT)
	}
}

// Pool config validation: the unsupported variants and malformed
// knobs must be rejected up front, and what a fleet accepts a one-pool
// run accepts too.
func TestShardedConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.DetailedOperations = true }, // on four pools
		func(c *Config) { c.Pools = -1 },
		func(c *Config) { c.Pools, c.Shards = 1, 1 }, // a router on one pool
	}
	for i, mutate := range bad {
		cfg := shardedConfig(4, 2, 4)
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d: invalid sharded config passed validation", i)
		}
	}
	// A router with a single effective pool cannot forward anywhere.
	cfg := shardedConfig(1, 2, 4) // shards clamp to pools; still one replica
	if err := cfg.validate(); err == nil {
		t.Error("Router with one pool passed validation")
	}
	if err := shardedConfig(4, 2, 4).validate(); err != nil {
		t.Errorf("valid sharded config rejected: %v", err)
	}
	one := shardedConfig(1, 1, 0)
	one.PoolArchs = workload.CaseStudyServers()
	one.BarrierHook = func(float64) {}
	one.DetailedOperations = true
	if err := one.validate(); err != nil {
		t.Errorf("PoolArchs, BarrierHook and DetailedOperations on one pool rejected: %v", err)
	}
}

// Windowed cold-start studies run one pool, whose completion intercept
// no other shard goroutine can reach; that pool takes PoolArchs and a
// BarrierHook like any other run.
func TestShardedGuards(t *testing.T) {
	if _, err := Windows(shardedConfig(2, 2, 0), 10); err == nil {
		t.Error("Windows accepted two pools")
	}
	cfg := shardedConfig(1, 2, 0)
	cfg.PoolArchs = []workload.ServerArch{workload.AppServS()}
	barriers := 0
	cfg.BarrierHook = func(float64) { barriers++ }
	points, err := Windows(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 12 || points[0].Completed == 0 || barriers == 0 {
		t.Errorf("one-pool windowed run: %d windows, %d completions in the first, %d barriers", len(points), points[0].Completed, barriers)
	}
}

// steadySharded warms a fleet past its transient and fills every pool
// (request records, message buffers, reservoirs) so subsequent windows
// run the pure steady-state path.
func steadySharded(t testing.TB, cfg Config) (*ShardedRun, float64) {
	t.Helper()
	r, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.Advance(cfg.WarmUp)
	r.BeginMeasurement()
	until := cfg.WarmUp + 60
	r.Advance(until)
	return r, until
}

// Acceptance criterion: the sharded hot loop — window execution,
// cross-pool messaging, barrier exchange — allocates nothing per
// advance on every shard, with metrics enabled.
func TestShardedSteadyStateZeroAllocWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)

	cfg := shardedConfig(4, 2, 4)
	cfg.Duration = 100000 // never reached; advanced manually
	r, until := steadySharded(t, cfg)
	allocs := testing.AllocsPerRun(50, func() {
		until += 2
		r.Advance(until)
	})
	if allocs != 0 {
		t.Fatalf("sharded steady-state loop allocates %v objects per 2 simulated seconds, want 0", allocs)
	}
	if res := r.Collect(); res.Throughput <= 0 {
		t.Fatal("empty collection")
	}
	if cfg.Router.(*everyNth).remote[0] == 0 {
		t.Fatal("no request crossed pools")
	}
	snap := reg.Snapshot()
	if snap.Counters["trade_requests_completed"] == 0 {
		t.Fatal("metrics enabled but trade_requests_completed stayed zero")
	}
	if snap.MaxGauges["sim_heap_depth_high_water"] == 0 {
		t.Fatal("per-shard heap high-water never published")
	}
}

// Every request enters through admit, which reports it to the router
// exactly once — an open Load stream's arrival, a scenario cohort's and
// a sibling pool's request landing off the hop included: at any barrier, the requests started are the requests completed
// plus those holding or queued for a thread.
func TestShardedAdmitOpenReportsStartedOnce(t *testing.T) {
	portal, err := scenario.New("portal").AddPoisson("portal", 60, map[string]float64{"browse": 1}).Compile("")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		routed bool // closed clients, who ask the router for a pool
		set    func(*Config)
	}{
		{"open Load stream", false, func(c *Config) {
			c.Load = workload.Workload{{Class: openClass(), ArrivalRate: 60}}
		}},
		{"scenario cohort", false, func(c *Config) { c.Load, c.Scenario = nil, portal }},
		{"hop arrival", true, func(*Config) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shardedConfig(2, 2, 1) // every routed request crosses pools
			tc.set(&cfg)
			router := cfg.Router.(*everyNth)
			r, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			r.Advance(20)
			for pi, p := range r.pools {
				inFlight := 0
				for _, app := range p.apps {
					inFlight += app.slots.Held() + app.slots.Queued()
				}
				if router.started[pi] == 0 || router.started[pi] != router.completed[pi]+inFlight {
					t.Errorf("pool %d: %d started, %d completed, %d in flight", pi, router.started[pi], router.completed[pi], inFlight)
				}
				if routed := router.issued[pi] > 0; routed != tc.routed {
					t.Errorf("pool %d: %d requests asked the router for a pool", pi, router.issued[pi])
				}
			}
		})
	}
}

// toFirst is a test PoolRouter that sends every request to pool 0.
type toFirst struct{}

func (toFirst) Route(origin, class int) int           { return 0 }
func (toFirst) Started(pool, class int)               {}
func (toFirst) Completed(pool, class int, rt float64) {}
func (toFirst) Local() bool                           { return false }

// A request record stays with the pool that issued it, wherever the
// request is served: a closed client has at most one request in
// flight, so no pool allocates more records than it has closed
// clients, even when one pool serves the whole fleet and its thread
// queue holds every other pool's requests.
func TestShardedRecordsStayWithTheirPool(t *testing.T) {
	cfg := shardedConfig(16, 2, 0)
	cfg.Router = toFirst{}
	r, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Advance(60)
	for pi, p := range r.pools {
		clients := p.classes[len(p.classes)-1].clientEnd
		if p.recs.n > uint32(clients) {
			t.Errorf("pool %d allocated %d request records for %d closed clients", pi, p.recs.n, clients)
		}
		if p.recs.n == 0 && p.recs.reused == 0 {
			t.Errorf("pool %d issued no request", pi)
		}
	}
}

// A fleet whose pools never meet runs one engine per pool; the same
// fleet with a barrier hook runs windowed on one engine per shard. The
// partitioning only decides which engine a pool's events fire on, so
// both must replay the identical trajectory at every shard count. One
// pool is the same run at any Shards, the plain Config's.
func TestShardedEnginePerPoolMatchesEnginePerShard(t *testing.T) {
	one, err := Run(shardedConfig(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, pools := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4} {
			free, err := Run(shardedConfig(pools, shards, 0))
			if err != nil {
				t.Fatal(err)
			}
			cfg := shardedConfig(pools, shards, 0)
			cfg.BarrierHook = func(float64) {}
			windowed, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if free.Throughput <= 0 {
				t.Fatal("barrier-free run measured nothing")
			}
			label := fmt.Sprintf("%d pools, %d shards", pools, shards)
			sameResult(t, label+", per-pool vs per-shard engines", free, windowed)
			if pools == 1 {
				sameResult(t, label+" vs the plain run", one, free)
			}
		}
	}
}

// settledGoroutines reads runtime.NumGoroutine once it has held still
// for a few milliseconds, so goroutines an earlier test is still
// retiring do not count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 5; still++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		}
	}
	return n
}

// The mapping: a barrier-free fleet has one engine per pool and a
// windowed one one engine per shard, while both advance on
// min(Shards, GOMAXPROCS) goroutines, the caller included.
func TestShardedEngineAndGoroutineCounts(t *testing.T) {
	const pools = 8
	for _, shards := range []int{1, 2, 4} {
		for _, windowed := range []bool{false, true} {
			cfg := shardedConfig(pools, shards, 0)
			wantEngines := pools
			if windowed {
				cfg.BarrierHook = func(float64) {}
				wantEngines = shards
			}
			before := settledGoroutines()
			r, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			started := runtime.NumGoroutine() - before
			r.Close()
			if got := r.coord.Shards(); got != wantEngines {
				t.Errorf("%d shards, windowed %v: %d engines, want %d", shards, windowed, got, wantEngines)
			}
			if want := min(shards, runtime.GOMAXPROCS(0)) - 1; started != want {
				t.Errorf("%d shards, windowed %v: %d goroutines besides the caller, want %d", shards, windowed, started, want)
			}
		}
	}
}
