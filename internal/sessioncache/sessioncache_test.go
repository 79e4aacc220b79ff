package sessioncache

import (
	"math"
	"testing"

	"perfpred/internal/lqn"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

func TestWorkingSetBytes(t *testing.T) {
	if got := workingSetBytes(100, 4096); got != 409600 {
		t.Fatalf("working set = %v", got)
	}
	if workingSetBytes(-1, 10) != 0 || workingSetBytes(10, -1) != 0 {
		t.Fatal("invalid inputs should yield 0")
	}
}

func TestEqualAccessMissRate(t *testing.T) {
	// Cache holds half the sessions → 50% misses.
	if got := EqualAccessMissRate(100, 100, 5000); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("miss rate = %v, want 0.5", got)
	}
	// Everything fits → 0.
	if got := EqualAccessMissRate(10, 100, 1e6); got != 0 {
		t.Fatalf("miss rate = %v, want 0", got)
	}
	// Nothing fits → 1.
	if got := EqualAccessMissRate(100, 100, 0); got != 1 {
		t.Fatalf("miss rate = %v, want 1", got)
	}
	if EqualAccessMissRate(0, 100, 100) != 0 {
		t.Fatal("no clients should yield 0")
	}
}

func TestFitMissRateModel(t *testing.T) {
	model, err := FitMissRateModel([]CachePoint{
		{CapacityBytes: 1000, MissRate: 0.8},
		{CapacityBytes: 3000, MissRate: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := model.Predict(2000); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("interpolated miss rate = %v, want 0.6", got)
	}
	// Extrapolations clamp to [0,1].
	if got := model.Predict(10000); got != 0 {
		t.Fatalf("large-cache prediction = %v, want clamp to 0", got)
	}
	if got := model.Predict(0); got <= 0.9 {
		t.Fatalf("zero-cache prediction = %v, want ≈1", got)
	}
	if _, err := FitMissRateModel([]CachePoint{{CapacityBytes: 1, MissRate: 0.5}}); err == nil {
		t.Fatal("one point should fail")
	}
	if _, err := FitMissRateModel([]CachePoint{
		{CapacityBytes: 1, MissRate: -0.1}, {CapacityBytes: 2, MissRate: 0.5},
	}); err == nil {
		t.Fatal("invalid miss rate should fail")
	}
}

func TestFitMissRateModelFromSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed test")
	}
	// Measure the real LRU's miss rate at two cache sizes, fit the
	// historical model, and check it interpolates a third size — the
	// §7.2 historical-method workflow end to end.
	const clients = 300
	const sessionBytes = 4096
	measure := func(capacity int64) float64 {
		cfg := trade.Config{
			Server:   workload.AppServF(),
			DB:       workload.CaseStudyDB(),
			Demands:  workload.CaseStudyDemands(),
			Load:     workload.TypicalWorkload(clients),
			Seed:     11,
			WarmUp:   40,
			Duration: 120,
			Cache:    &trade.CacheConfig{SizeBytes: capacity, SessionBytesMean: sessionBytes},
		}
		res, err := trade.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.CacheMissRate
	}
	workingSet := int64(clients * sessionBytes)
	low := measure(workingSet / 5)
	high := measure(workingSet * 5 / 6)
	model, err := FitMissRateModel([]CachePoint{
		{CapacityBytes: float64(workingSet / 5), MissRate: low},
		{CapacityBytes: float64(workingSet * 5 / 6), MissRate: high},
	})
	if err != nil {
		t.Fatal(err)
	}
	midCap := workingSet / 2
	predicted := model.Predict(float64(midCap))
	actual := measure(midCap)
	if math.Abs(predicted-actual) > 0.20 {
		t.Fatalf("historical cache model predicted %v, measured %v", predicted, actual)
	}
}

func TestEffectiveDemand(t *testing.T) {
	d := workload.Demand{AppServerTime: 0.005, DBTimePerCall: 0.001, DBCallsPerRequest: 1}
	// 50% miss rate, one extra call per miss → +0.5 calls per request.
	eff, err := EffectiveDemand(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eff.DBCallsPerRequest-1.5) > 1e-12 {
		t.Fatalf("effective calls = %v, want 1.5", eff.DBCallsPerRequest)
	}
	if math.Abs(eff.TotalDBTime()-0.0015) > 1e-12 {
		t.Fatalf("effective db time = %v, want 0.0015", eff.TotalDBTime())
	}
	if eff.AppServerTime != d.AppServerTime {
		t.Fatal("app demand must be unchanged")
	}
	// Zero miss rate is identity.
	same, err := EffectiveDemand(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if same.TotalDBTime() != d.TotalDBTime() {
		t.Fatal("zero miss rate should not change demand")
	}
	if _, err := EffectiveDemand(d, 1.5); err == nil {
		t.Fatal("miss rate > 1 should fail")
	}
}

func TestSolveWithCacheFixedPoint(t *testing.T) {
	const clients = 400
	const sessionBytes = 4096
	run := func(capacity float64) *CacheSolveResult {
		res, err := SolveWithCache(workload.AppServF(), workload.CaseStudyDB(),
			workload.CaseStudyDemands(), workload.TypicalWorkload(clients),
			capacity, sessionBytes, lqn.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Big cache: fixed point at 0 misses; solution matches plain LQN.
	big := run(100 * clients * sessionBytes)
	if big.MissRate != 0 {
		t.Fatalf("big cache miss rate = %v, want 0", big.MissRate)
	}
	if !big.Converged {
		t.Fatal("big-cache fixed point did not converge")
	}
	// Small cache: misses appear and the predicted response time is
	// worse than the no-cache solution.
	small := run(0.1 * clients * sessionBytes)
	if small.MissRate <= 0 || small.MissRate > 1 {
		t.Fatalf("small cache miss rate = %v", small.MissRate)
	}
	if small.Result.MeanResponseTime() <= big.Result.MeanResponseTime() {
		t.Fatalf("thrashing cache RT %v should exceed big-cache RT %v",
			small.Result.MeanResponseTime(), big.Result.MeanResponseTime())
	}
	if small.AssumptionNote == "" {
		t.Fatal("the distributional assumption must be surfaced")
	}
	// Monotonicity: shrinking the cache cannot reduce misses.
	smaller := run(0.05 * clients * sessionBytes)
	if smaller.MissRate < small.MissRate-1e-9 {
		t.Fatalf("smaller cache produced fewer misses: %v vs %v", smaller.MissRate, small.MissRate)
	}
	if _, err := SolveWithCache(workload.AppServF(), workload.CaseStudyDB(),
		workload.CaseStudyDemands(), workload.TypicalWorkload(clients),
		0, sessionBytes, lqn.Options{}); err == nil {
		t.Fatal("zero capacity should fail")
	}
}

// naiveSolveWithCache is the reference fixed point: rebuild and
// re-resolve the full model from scratch with a cold solver every
// iteration — the behaviour SolveWithCache had before it reused the
// resolved topology. The optimised loop must stay on the same fixed
// point.
func naiveSolveWithCache(t *testing.T, server workload.ServerArch, db workload.DBServer, demands map[workload.RequestType]workload.Demand, load workload.Workload, capacityBytes, meanSessionBytes float64, opt lqn.Options) (missRate float64, res *lqn.Result) {
	t.Helper()
	clients := load.TotalClients()
	miss := EqualAccessMissRate(clients, meanSessionBytes, capacityBytes)
	for iter := 0; iter < 100; iter++ {
		adjusted := make(map[workload.RequestType]workload.Demand, len(demands))
		for rt, d := range demands {
			eff, err := EffectiveDemand(d, miss)
			if err != nil {
				t.Fatal(err)
			}
			adjusted[rt] = eff
		}
		model, err := lqn.NewTradeModel(server, db, adjusted, load)
		if err != nil {
			t.Fatal(err)
		}
		res, err = lqn.Solve(model, opt)
		if err != nil {
			t.Fatal(err)
		}
		next := estimateMissRate(miss, res.TotalThroughput(), res.MeanResponseTime(), clients, meanSessionBytes, capacityBytes, load)
		if math.Abs(next-miss) < 1e-6 {
			return next, res
		}
		miss = 0.5*miss + 0.5*next
	}
	return miss, res
}

// TestSolveWithCacheMatchesNaiveRebuild pins the optimised fixed point
// (model built once, demands retuned in place, warm-started solver)
// against the rebuild-everything reference.
func TestSolveWithCacheMatchesNaiveRebuild(t *testing.T) {
	const clients = 400
	const sessionBytes = 4096
	for _, frac := range []float64{0.05, 0.25, 0.60, 2.0} {
		capacity := frac * clients * sessionBytes
		got, err := SolveWithCache(workload.AppServF(), workload.CaseStudyDB(),
			workload.CaseStudyDemands(), workload.TypicalWorkload(clients),
			capacity, sessionBytes, lqn.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantMiss, wantRes := naiveSolveWithCache(t, workload.AppServF(), workload.CaseStudyDB(),
			workload.CaseStudyDemands(), workload.TypicalWorkload(clients),
			capacity, sessionBytes, lqn.Options{})
		if d := math.Abs(got.MissRate - wantMiss); d > 1e-4 {
			t.Fatalf("capacity %.2f: miss rate %v, reference %v (Δ=%v)", frac, got.MissRate, wantMiss, d)
		}
		gotRT, wantRT := got.Result.MeanResponseTime(), wantRes.MeanResponseTime()
		if d := math.Abs(gotRT - wantRT); d > 1e-3*(1+wantRT) {
			t.Fatalf("capacity %.2f: RT %v, reference %v", frac, gotRT, wantRT)
		}
	}
}
