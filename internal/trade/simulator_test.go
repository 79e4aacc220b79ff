package trade

import (
	"math"
	"testing"

	"perfpred/internal/workload"
)

func measureOpts() MeasureOptions {
	return MeasureOptions{Seed: 1, WarmUp: 40, Duration: 160}
}

func TestConfigValidate(t *testing.T) {
	good := baseConfig(workload.AppServF(), workload.TypicalWorkload(100), measureOpts())
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Load = workload.TypicalWorkload(0)
	if err := bad.validate(); err == nil {
		t.Fatal("zero clients should fail")
	}
	bad = good
	bad.Duration = 0
	if err := bad.validate(); err == nil {
		t.Fatal("zero duration should fail")
	}
	// NaN passes every ordered comparison and an infinite run never
	// returns: `tradebench -duration NaN` used to hang.
	for _, h := range [][2]float64{{0, math.NaN()}, {math.NaN(), 1}, {0, math.Inf(1)}, {math.Inf(1), 1}} {
		bad = good
		bad.WarmUp, bad.Duration = h[0], h[1]
		if err := bad.validate(); err == nil {
			t.Fatalf("warm-up %v, duration %v should fail", h[0], h[1])
		}
	}
	bad = good
	bad.Demands = map[workload.RequestType]workload.Demand{}
	if err := bad.validate(); err == nil {
		t.Fatal("empty demands should fail")
	}
	bad = good
	bad.Demands = map[workload.RequestType]workload.Demand{
		workload.Buy: workload.CaseStudyDemands()[workload.Buy],
	}
	if err := bad.validate(); err == nil {
		t.Fatal("missing demand for used request type should fail")
	}
	bad = good
	bad.Cache = &CacheConfig{SizeBytes: 0, SessionBytesMean: 1}
	if err := bad.validate(); err == nil {
		t.Fatal("invalid cache config should fail")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := baseConfig(workload.AppServF(), workload.TypicalWorkload(200), MeasureOptions{Seed: 7, WarmUp: 20, Duration: 60})
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanRT != b.MeanRT || a.Throughput != b.Throughput {
		t.Fatalf("same seed differs: %v vs %v", a, b)
	}
	cfg.Seed = 8
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanRT == c.MeanRT {
		t.Fatal("different seeds produced identical mean RT")
	}
}

func TestLightLoadResponseTimeNearDemand(t *testing.T) {
	// A nearly idle server should respond in roughly the raw demand:
	// app time + db calls * db time, with negligible queuing.
	res, err := Measure(workload.AppServF(), workload.TypicalWorkload(5), measureOpts())
	if err != nil {
		t.Fatal(err)
	}
	d := workload.CaseStudyDemands()[workload.Browse]
	want := d.AppServerTime + d.TotalDBTime()
	if res.MeanRT < 0.5*want || res.MeanRT > 2.5*want {
		t.Fatalf("light-load mean RT %v, want ≈%v", res.MeanRT, want)
	}
	if res.AppUtilization > 0.05 {
		t.Fatalf("light-load app utilization %v too high", res.AppUtilization)
	}
}

func TestClosedLoopThroughputBelowSaturation(t *testing.T) {
	// Below saturation, X ≈ N/(Z+R): the paper's linear
	// clients-throughput relationship with gradient m ≈ 1/(Z+R) ≈ 0.14.
	const n = 500
	res, err := Measure(workload.AppServF(), workload.TypicalWorkload(n), measureOpts())
	if err != nil {
		t.Fatal(err)
	}
	expected := float64(n) / (workload.ThinkTimeMean + res.MeanRT)
	if math.Abs(res.Throughput-expected)/expected > 0.05 {
		t.Fatalf("throughput %v violates Little's law expectation %v", res.Throughput, expected)
	}
	m := res.Throughput / float64(n)
	if m < 0.12 || m > 0.15 {
		t.Fatalf("gradient m = %v, want ≈0.14", m)
	}
}

func TestMaxThroughputMatchesBenchmarks(t *testing.T) {
	// The simulator must reproduce the paper's benchmarked max
	// throughputs: 86, 186 and 320 req/s (§3.2) within a few percent.
	for _, tc := range []struct {
		server workload.ServerArch
		want   float64
	}{
		{workload.AppServS(), workload.MaxThroughputS},
		{workload.AppServF(), workload.MaxThroughputF},
		{workload.AppServVF(), workload.MaxThroughputVF},
	} {
		got, err := MaxThroughput(tc.server, 0, measureOpts())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want)/tc.want > 0.04 {
			t.Fatalf("%s max throughput = %v, want ≈%v", tc.server.Name, got, tc.want)
		}
	}
}

func TestSaturatedResponseTimeLinear(t *testing.T) {
	// Past saturation, RT ≈ N/Xmax − Z grows linearly in N — the
	// historical method's upper equation (2).
	opt := measureOpts()
	n1, n2 := 1800, 2400
	r1, err := Measure(workload.AppServF(), workload.TypicalWorkload(n1), opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Measure(workload.AppServF(), workload.TypicalWorkload(n2), opt)
	if err != nil {
		t.Fatal(err)
	}
	want1 := float64(n1)/workload.MaxThroughputF - workload.ThinkTimeMean
	want2 := float64(n2)/workload.MaxThroughputF - workload.ThinkTimeMean
	if math.Abs(r1.MeanRT-want1)/want1 > 0.12 {
		t.Fatalf("saturated RT at %d clients = %v, want ≈%v", n1, r1.MeanRT, want1)
	}
	if math.Abs(r2.MeanRT-want2)/want2 > 0.12 {
		t.Fatalf("saturated RT at %d clients = %v, want ≈%v", n2, r2.MeanRT, want2)
	}
	if r2.MeanRT <= r1.MeanRT {
		t.Fatal("response time must grow with clients past saturation")
	}
	// Throughput is pinned at max.
	if math.Abs(r1.Throughput-workload.MaxThroughputF)/workload.MaxThroughputF > 0.05 {
		t.Fatalf("saturated throughput = %v, want ≈%v", r1.Throughput, workload.MaxThroughputF)
	}
}

func TestBuyWorkloadSlowerAndLowersMaxThroughput(t *testing.T) {
	// Buy requests are heavier (Table 2), so a buy mix lowers max
	// throughput — relationship 3's premise.
	typ, err := MaxThroughput(workload.AppServF(), 0, measureOpts())
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := MaxThroughput(workload.AppServF(), 0.25, measureOpts())
	if err != nil {
		t.Fatal(err)
	}
	if mixed >= typ {
		t.Fatalf("25%% buy max throughput %v should be below typical %v", mixed, typ)
	}
	// The paper measured 189 → 158 req/s (a ~16% drop) on AppServF.
	drop := (typ - mixed) / typ
	if drop < 0.08 || drop > 0.30 {
		t.Fatalf("buy-mix throughput drop = %v, want roughly 10-25%%", drop)
	}
}

func TestPerClassResults(t *testing.T) {
	res, err := Measure(workload.AppServF(), workload.MixedWorkload(600, 0.25), measureOpts())
	if err != nil {
		t.Fatal(err)
	}
	buy, ok := res.PerClass["buy"]
	if !ok {
		t.Fatal("missing buy class result")
	}
	browse, ok := res.PerClass["browse"]
	if !ok {
		t.Fatal("missing browse class result")
	}
	// Buy requests are heavier, so their mean RT is higher.
	if buy.MeanRT <= browse.MeanRT {
		t.Fatalf("buy RT %v should exceed browse RT %v", buy.MeanRT, browse.MeanRT)
	}
	// Class shares roughly match the population split.
	frac := buy.Throughput / res.Throughput
	if math.Abs(frac-0.25) > 0.05 {
		t.Fatalf("buy request share = %v, want ≈0.25", frac)
	}
	if buy.Percentile(90) <= 0 || browse.Percentile(90) < browse.MeanRT*0.5 {
		t.Fatal("implausible percentiles")
	}
	if res.OverallPercentile(90) < res.MeanRT {
		t.Fatal("p90 should exceed mean for right-skewed response times")
	}
}

func TestDBUtilizationModest(t *testing.T) {
	// The app server is the case-study bottleneck; the DB must not be.
	res, err := Measure(workload.AppServF(), workload.TypicalWorkload(1600), measureOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.DBUtilization >= res.AppUtilization {
		t.Fatalf("db utilization %v should be below app %v", res.DBUtilization, res.AppUtilization)
	}
	if res.AppUtilization < 0.9 {
		t.Fatalf("app utilization %v should be near 1 at saturation", res.AppUtilization)
	}
}

func TestMeasureCurveShape(t *testing.T) {
	counts := []int{200, 800, 1600, 2200}
	points, err := MeasureCurve(workload.AppServF(), counts, 0, measureOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(counts) {
		t.Fatalf("got %d points", len(points))
	}
	// Mean RT is non-decreasing in load.
	for i := 1; i < len(points); i++ {
		if points[i].Res.MeanRT < points[i-1].Res.MeanRT*0.8 {
			t.Fatalf("RT curve not monotone: %v then %v", points[i-1].Res.MeanRT, points[i].Res.MeanRT)
		}
	}
	if _, err := MeasureCurve(workload.AppServF(), []int{0}, 0, measureOpts()); err == nil {
		t.Fatal("zero clients in curve should fail")
	}
}
