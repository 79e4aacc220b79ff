package trade

import (
	"fmt"
	"math"
	"testing"

	"perfpred/internal/workload"
)

// tierOf builds a homogeneous tier of n copies of arch with unique
// names.
func tierOf(arch workload.ServerArch, n int) []workload.ServerArch {
	out := make([]workload.ServerArch, n)
	for i := range out {
		a := arch
		a.Name = fmt.Sprintf("%s-%d", arch.Name, i+1)
		out[i] = a
	}
	return out
}

func clusterConfig(servers []workload.ServerArch, clients int, routing RoutingPolicy) Config {
	return Config{
		Servers:  servers,
		Routing:  routing,
		DB:       workload.CaseStudyDB(),
		Demands:  workload.CaseStudyDemands(),
		Load:     workload.TypicalWorkload(clients),
		Seed:     13,
		WarmUp:   40,
		Duration: 140,
	}
}

func TestClusterValidation(t *testing.T) {
	dup := clusterConfig([]workload.ServerArch{workload.AppServF(), workload.AppServF()}, 100, RouteSticky)
	if err := dup.validate(); err == nil {
		t.Fatal("duplicate server names should fail")
	}
	bad := clusterConfig(tierOf(workload.AppServF(), 2), 100, "random")
	if err := bad.validate(); err == nil {
		t.Fatal("unknown routing policy should fail")
	}
	ok := clusterConfig(tierOf(workload.AppServF(), 2), 100, RouteLeastBusy)
	if err := ok.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterThroughputScales(t *testing.T) {
	// Two AppServF servers saturate at ≈2×186 req/s (the shared DB has
	// ample headroom at this load).
	cfg := clusterConfig(tierOf(workload.AppServF(), 2), 5600, RouteSticky)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * workload.MaxThroughputF
	if math.Abs(res.Throughput-want)/want > 0.05 {
		t.Fatalf("2-server max throughput = %v, want ≈%v", res.Throughput, want)
	}
	if len(res.PerServer) != 2 {
		t.Fatalf("per-server results = %d", len(res.PerServer))
	}
	// Both members near saturation and contributing comparably.
	for _, sr := range res.PerServer {
		if sr.Utilization < 0.9 {
			t.Fatalf("%s utilisation = %v, want ≈1", sr.Name, sr.Utilization)
		}
		if math.Abs(sr.Throughput-workload.MaxThroughputF)/workload.MaxThroughputF > 0.08 {
			t.Fatalf("%s throughput = %v, want ≈186", sr.Name, sr.Throughput)
		}
	}
}

func TestClusterStickyWeightsBySpeed(t *testing.T) {
	// A mixed S+VF tier under sticky routing spreads clients by speed:
	// utilisations stay comparable despite the 3.7× speed gap.
	servers := []workload.ServerArch{workload.AppServS(), workload.AppServVF()}
	cfg := clusterConfig(servers, 1600, RouteSticky)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uS := res.PerServer[0].Utilization
	uVF := res.PerServer[1].Utilization
	if uS < 0.25*uVF || uS > 4*uVF {
		t.Fatalf("sticky routing left utilisations unbalanced: S=%v VF=%v", uS, uVF)
	}
	// Throughput shares track the speed ratio ≈ 86:320.
	shareS := res.PerServer[0].Throughput / res.Throughput
	wantShare := workload.MaxThroughputS / (workload.MaxThroughputS + workload.MaxThroughputVF)
	if math.Abs(shareS-wantShare) > 0.08 {
		t.Fatalf("S throughput share = %v, want ≈%v", shareS, wantShare)
	}
}

func TestClusterRoundRobinOverloadsSlowServer(t *testing.T) {
	// Speed-blind round-robin on a mixed tier sends the slow server
	// the same request rate as the fast one, saturating it first and
	// inflating the mean response time versus sticky weighting.
	servers := []workload.ServerArch{workload.AppServS(), workload.AppServVF()}
	rr, err := Run(clusterConfig(servers, 2200, RouteRoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	sticky, err := Run(clusterConfig(servers, 2200, RouteSticky))
	if err != nil {
		t.Fatal(err)
	}
	uSlow := rr.PerServer[0].Utilization
	uFast := rr.PerServer[1].Utilization
	if uSlow < uFast {
		t.Fatalf("round robin should load the slow server harder: S=%v VF=%v", uSlow, uFast)
	}
	if rr.MeanRT <= sticky.MeanRT {
		t.Fatalf("round robin mean RT %v should exceed sticky %v on a heterogeneous tier",
			rr.MeanRT, sticky.MeanRT)
	}
}

func TestClusterLeastBusyAdapts(t *testing.T) {
	// Join-the-shortest-queue routes by observed backlog, so it should
	// beat speed-blind round robin on a heterogeneous tier.
	servers := []workload.ServerArch{workload.AppServS(), workload.AppServVF()}
	jsq, err := Run(clusterConfig(servers, 2200, RouteLeastBusy))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(clusterConfig(servers, 2200, RouteRoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	if jsq.MeanRT >= rr.MeanRT {
		t.Fatalf("least-busy mean RT %v should beat round robin %v", jsq.MeanRT, rr.MeanRT)
	}
}

func TestClusterDBPerServerQueues(t *testing.T) {
	// The database keeps one FIFO queue per application server: with a
	// 3-server tier near tier saturation the DB still serves all
	// members — no server's database calls are starved.
	servers := tierOf(workload.AppServF(), 3)
	cfg := clusterConfig(servers, 8400, RouteSticky)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.PerServer {
		if sr.Completed == 0 {
			t.Fatalf("server %s starved", sr.Name)
		}
	}
	if res.DBUtilization >= 1 {
		t.Fatalf("db utilisation = %v", res.DBUtilization)
	}
	// Aggregate throughput ≈ 3×186 (db is not yet the bottleneck).
	want := 3 * workload.MaxThroughputF
	if math.Abs(res.Throughput-want)/want > 0.06 {
		t.Fatalf("3-server throughput = %v, want ≈%v", res.Throughput, want)
	}
}

// The database serves its per-server FIFO queues in turn (§2: one
// queue per application server). With two agents behind a slow
// database CPU, both servers of a round-robin tier keep requests
// waiting for an agent at once, so the order the queues are polled in
// decides who waits. Taken in turn, the two identical servers hold
// their threads equally long; a database that favours either queue
// leaves the other's requests, and so its threads, waiting behind it
// (≈ 1.8 against ≈ 9.7 threads held). Throughput cannot tell: round
// robin routing sends each server half the requests whatever the
// database does with them.
func TestClusterDBServesSourcesInTurn(t *testing.T) {
	cfg := clusterConfig(tierOf(workload.AppServF(), 2), 700, RouteRoundRobin)
	cfg.DB.MPL = 2
	cfg.DB.Speed = 0.1 // ≈ 105 req/s of database capacity against ≈ 370 of application
	cfg.Duration = 1000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DBUtilization < 0.9 {
		t.Fatalf("db utilisation %.3f: the agents are not contended", res.DBUtilization)
	}
	a, b := res.PerServer[0], res.PerServer[1]
	t.Logf("threads held %.1f and %.1f, throughput %.1f and %.1f req/s", a.MeanSlotsHeld, b.MeanSlotsHeld, a.Throughput, b.Throughput)
	if d := math.Abs(a.MeanSlotsHeld-b.MeanSlotsHeld) / (a.MeanSlotsHeld + b.MeanSlotsHeld); d > 0.05 {
		t.Errorf("threads held %.1f and %.1f: the database serves one server's queue ahead of the other's", a.MeanSlotsHeld, b.MeanSlotsHeld)
	}
}

func TestClusterCachePerServer(t *testing.T) {
	// Session caches live per server. Sticky routing keeps a client on
	// one server (few misses once warm); per-request round robin
	// scatters a client's requests across caches, multiplying misses.
	servers := tierOf(workload.AppServF(), 4)
	const clients = 200
	mk := func(routing RoutingPolicy) Config {
		cfg := clusterConfig(servers, clients, routing)
		cfg.Cache = &CacheConfig{
			SizeBytes:        8 * 1024 * 1024,
			SessionBytesMean: 4096,
		}
		return cfg
	}
	sticky, err := Run(mk(RouteSticky))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(mk(RouteRoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	if sticky.CacheMissRate > 0.05 {
		t.Fatalf("sticky warm miss rate = %v, want ≈0", sticky.CacheMissRate)
	}
	if rr.CacheMissRate <= sticky.CacheMissRate {
		t.Fatalf("scattering requests should raise the miss rate: rr=%v sticky=%v",
			rr.CacheMissRate, sticky.CacheMissRate)
	}
}
