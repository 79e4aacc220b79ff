package trade

import (
	"math"
	"testing"

	"perfpred/internal/obs"
	"perfpred/internal/sim"
	"perfpred/internal/workload"
)

func shardedConfig(pools, shards int, remote float64) Config {
	return Config{
		Server:         workload.AppServF(),
		DB:             workload.CaseStudyDB(),
		Demands:        workload.CaseStudyDemands(),
		Load:           workload.MixedWorkload(200, 0.25),
		Seed:           31,
		WarmUp:         10,
		Duration:       120,
		MaxRTSamples:   64,
		Pools:          pools,
		Shards:         shards,
		RemoteFraction: remote,
	}
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
	for _, remote := range []float64{0, 0.25} {
		cfgRef := shardedConfig(4, 1, remote)
		ref, err := Run(cfgRef)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Throughput <= 0 {
			t.Fatal("reference run measured nothing")
		}
		for _, shards := range []int{2, 4} {
			cfg := shardedConfig(4, shards, remote)
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, formatLabel(remote, shards), ref, got)
		}
	}
}

func formatLabel(remote float64, shards int) string {
	if remote > 0 {
		return "remote/" + string(rune('0'+shards)) + "shards"
	}
	return "isolated/" + string(rune('0'+shards)) + "shards"
}

// Re-running the identical sharded config must be exactly reproducible
// (the coordinator introduces no scheduling nondeterminism).
func TestShardedRunReproducible(t *testing.T) {
	cfg := shardedConfig(3, 3, 0.2)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rerun", a, b)
}

// With RemoteFraction 0 every pool is an independent replica: pool i's
// trajectory must be EXACTLY the legacy single-engine run seeded with
// SplitSeed(seed, i) — the fleet is the sum of legacy runs. This pins
// the sharded path to the pre-existing engine's behaviour.
func TestShardedPoolsMatchLegacyRuns(t *testing.T) {
	cfg := shardedConfig(2, 2, 0)
	fleet, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var legacyFired uint64
	legacyCompleted := map[string]int{}
	legacyApp := map[string]float64{}
	for i := 0; i < 2; i++ {
		lcfg := cfg
		lcfg.Pools, lcfg.Shards = 0, 0
		lcfg.Seed = sim.SplitSeed(cfg.Seed, uint64(i))
		lr, err := Run(lcfg)
		if err != nil {
			t.Fatal(err)
		}
		legacyFired += lr.EventsFired
		for name, c := range lr.PerClass {
			legacyCompleted[name] += c.Completed
		}
		legacyApp[lr.PerServer[0].Name] += lr.PerServer[0].Utilization
	}
	if fleet.EventsFired != legacyFired {
		t.Errorf("fleet fired %d events, legacy pair fired %d", fleet.EventsFired, legacyFired)
	}
	for name, want := range legacyCompleted {
		if got := fleet.PerClass[name].Completed; got != want {
			t.Errorf("class %s completed %d, legacy pair %d", name, got, want)
		}
	}
	var fleetApp float64
	for _, srv := range fleet.PerServer {
		fleetApp += srv.Utilization
	}
	var legacySum float64
	for _, u := range legacyApp {
		legacySum += u
	}
	if math.Abs(fleetApp-legacySum) > 1e-12 {
		t.Errorf("fleet app utilisation sum %v, legacy pair %v", fleetApp, legacySum)
	}
}

// Remote requests must actually flow and be measured: with a high
// remote fraction the per-class completions stay near the isolated
// fleet's (every forwarded request still completes), and response
// times grow by at least the two network hops on the remote share.
func TestShardedRemoteRequestsServed(t *testing.T) {
	base, err := Run(shardedConfig(2, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Run(shardedConfig(2, 2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if remote.Throughput <= 0.5*base.Throughput {
		t.Fatalf("remote fleet throughput %v collapsed vs isolated %v", remote.Throughput, base.Throughput)
	}
	// Half the requests pay 2 × DefaultShardLatency of pure network
	// time; the fleet mean must reflect at least part of that.
	if remote.MeanRT < base.MeanRT {
		t.Fatalf("remote fleet meanRT %v below isolated %v despite added hops", remote.MeanRT, base.MeanRT)
	}
}

// Sharded config validation: the unsupported variants and malformed
// knobs must be rejected up front.
func TestShardedConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.DetailedOperations = true },
		func(c *Config) { c.RemoteFraction = 1.0 },
		func(c *Config) { c.RemoteFraction = -0.1 },
		func(c *Config) { c.ShardLatency = -1 },
		func(c *Config) { c.Pools = -1 },
		func(c *Config) { c.Pools, c.Shards = 1, 1; c.RemoteFraction = 0.5 }, // not sharded
		func(c *Config) { c.Pools = 0; c.Shards = 0; c.ShardLatency = 0.01 }, // not sharded
	}
	for i, mutate := range bad {
		cfg := shardedConfig(4, 2, 0.2)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid sharded config passed validation", i)
		}
	}
	// RemoteFraction with a single effective pool cannot forward
	// anywhere.
	cfg := shardedConfig(0, 1, 0.5)
	cfg.Pools = 1
	cfg.Shards = 2 // clamped to pools; still one replica
	if err := cfg.Validate(); err == nil {
		t.Error("RemoteFraction with one pool passed validation")
	}
	if err := shardedConfig(4, 2, 0.2).Validate(); err != nil {
		t.Errorf("valid sharded config rejected: %v", err)
	}
}

// Adaptive and transient studies stay on the legacy engine.
func TestShardedGuards(t *testing.T) {
	cfg := shardedConfig(2, 2, 0)
	if _, err := RunAdaptive(cfg, RunControl{TargetRelErr: 0.05}); err == nil {
		t.Error("RunAdaptive accepted a sharded config")
	}
	if _, err := TransientCurve(cfg, 10); err == nil {
		t.Error("TransientCurve accepted a sharded config")
	}
}

// steadyShardedSim warms a fleet past its transient and fills every
// pool (request records, cross-pool records, message buffers,
// reservoirs) so subsequent windows run the pure steady-state path.
func steadyShardedSim(t testing.TB, cfg Config) (*shardedSim, float64) {
	t.Helper()
	ss, err := newShardedSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ss.coord.Close)
	ss.coord.Run(cfg.WarmUp)
	for _, p := range ss.pools {
		p.resetStats()
		p.measuring = true
	}
	until := cfg.WarmUp + 60
	ss.coord.Run(until)
	return ss, until
}

// Acceptance criterion: the sharded hot loop — window execution,
// cross-pool messaging, barrier exchange — allocates nothing per
// advance on every shard, with metrics enabled.
func TestShardedSteadyStateZeroAllocWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	sim.EnableMetrics(reg)
	defer EnableMetrics(nil)
	defer sim.EnableMetrics(nil)

	cfg := shardedConfig(4, 2, 0.25)
	cfg.Duration = 100000 // never reached; advanced manually
	ss, until := steadyShardedSim(t, cfg)
	allocs := testing.AllocsPerRun(50, func() {
		until += 2
		ss.coord.Run(until)
	})
	if allocs != 0 {
		t.Fatalf("sharded steady-state loop allocates %v objects per 2 simulated seconds, want 0", allocs)
	}
	if res := ss.collect(); res.Throughput <= 0 {
		t.Fatal("empty collection")
	}
	snap := reg.Snapshot()
	if snap.Counters["trade_requests_completed"] == 0 {
		t.Fatal("metrics enabled but trade_requests_completed stayed zero")
	}
	if snap.MaxGauges["sim_heap_depth_high_water"] == 0 {
		t.Fatal("per-shard heap high-water never published")
	}
}
