package hybrid

import (
	"math"
	"testing"

	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

func caseConfig() Config {
	return Config{
		DB:      workload.CaseStudyDB(),
		Demands: workload.CaseStudyDemands(),
	}
}

func TestBuildProducesModelPerServer(t *testing.T) {
	m, err := Build(caseConfig(), workload.CaseStudyServers())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Servers) != 3 {
		t.Fatalf("got %d server models", len(m.Servers))
	}
	if m.StartupDelay <= 0 {
		t.Fatal("start-up delay not recorded")
	}
	// Max 4 points per equation plus 2 scoping solves per server.
	if m.Evaluations != 3*(4+4+2) {
		t.Fatalf("evaluations = %d, want 30", m.Evaluations)
	}
	for name, sm := range m.Servers {
		if err := sm.Validate(); err != nil {
			t.Fatalf("%s model invalid: %v", name, err)
		}
	}
	// Max throughputs derived from the layered model track the
	// benchmarks.
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"AppServS", workload.MaxThroughputS},
		{"AppServF", workload.MaxThroughputF},
		{"AppServVF", workload.MaxThroughputVF},
	} {
		got := m.Servers[tc.name].MaxThroughput
		if math.Abs(got-tc.want)/tc.want > 0.03 {
			t.Fatalf("%s hybrid Xmax = %v, want ≈%v", tc.name, got, tc.want)
		}
	}
}

func TestBuildArgumentErrors(t *testing.T) {
	if _, err := Build(caseConfig(), nil); err == nil {
		t.Fatal("no servers should fail")
	}
	cfg := caseConfig()
	cfg.PointsPerEquation = 1
	if _, err := Build(cfg, workload.CaseStudyServers()); err == nil {
		t.Fatal("one point per equation should fail")
	}
	cfg = caseConfig()
	cfg.Demands = nil
	if _, err := Build(cfg, workload.CaseStudyServers()); err == nil {
		t.Fatal("missing demands should fail")
	}
}

func TestPredictAfterStartupIsClosedForm(t *testing.T) {
	m, err := Build(caseConfig(), []workload.ServerArch{workload.AppServF()})
	if err != nil {
		t.Fatal(err)
	}
	evalsAfterBuild := m.Evaluations
	for n := 100.0; n <= 2500; n += 100 {
		if _, err := m.Servers.Predict("AppServF", n); err != nil {
			t.Fatal(err)
		}
	}
	if m.Evaluations != evalsAfterBuild {
		t.Fatal("Predict must not run the layered solver")
	}
	if _, err := m.Servers.Predict("ghost", 100); err == nil {
		t.Fatal("unknown server should fail")
	}
}

func TestHybridAccuracyAgainstSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed accuracy test")
	}
	m, err := Build(caseConfig(), workload.CaseStudyServers())
	if err != nil {
		t.Fatal(err)
	}
	opt := trade.MeasureOptions{Seed: 31, WarmUp: 40, Duration: 120}
	for _, arch := range workload.CaseStudyServers() {
		sm := m.Servers[arch.Name]
		nStar := sm.SaturationClients()
		counts := []int{int(0.3 * nStar), int(0.5 * nStar), int(1.3 * nStar), int(1.7 * nStar)}
		points, err := trade.MeasureCurve(arch, counts, 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		var preds, acts []float64
		for _, p := range points {
			pr, err := m.Servers.Predict(arch.Name, float64(p.Clients))
			if err != nil {
				t.Fatal(err)
			}
			preds = append(preds, pr)
			acts = append(acts, p.Res.MeanRT)
		}
		// The paper reports ~67-75% hybrid accuracy; require a floor.
		var errSum float64
		for i := range preds {
			errSum += math.Abs(preds[i]-acts[i]) / acts[i]
		}
		acc := 100 * (1 - errSum/float64(len(preds)))
		if acc < 55 {
			t.Fatalf("%s hybrid accuracy = %.1f%%, want ≥55%%", arch.Name, acc)
		}
		t.Logf("%s hybrid accuracy: %.1f%%", arch.Name, acc)
	}
}

func TestPercentileAndMaxClients(t *testing.T) {
	m, err := Build(caseConfig(), []workload.ServerArch{workload.AppServF()})
	if err != nil {
		t.Fatal(err)
	}
	mean, err := m.Servers.Predict("AppServF", 2000)
	if err != nil {
		t.Fatal(err)
	}
	p90, err := m.Servers["AppServF"].PredictPercentile(2000, 0.90, 0.2041)
	if err != nil {
		t.Fatal(err)
	}
	if p90 <= mean {
		t.Fatalf("p90 %v should exceed mean %v", p90, mean)
	}
	n, err := m.Servers.MaxClients("AppServF", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("max clients = %v", n)
	}
	rt, err := m.Servers.Predict("AppServF", n)
	if err != nil {
		t.Fatal(err)
	}
	if rt > 0.3*1.001 {
		t.Fatalf("RT at max clients = %v > goal", rt)
	}
	if _, err := m.Servers.MaxClients("ghost", 0.3); err == nil {
		t.Fatal("unknown server should fail")
	}
}

func TestBuildRelationship3(t *testing.T) {
	rel3, evals, err := BuildRelationship3(caseConfig(), workload.AppServF(), []float64{0, 25})
	if err != nil {
		t.Fatal(err)
	}
	if evals != 2 {
		t.Fatalf("evaluations = %d, want 2", evals)
	}
	// Equation 5 scales the established trend to a server's 0%-buy
	// benchmark, so the relative drop is the trend's at any benchmark.
	x0, err := rel3.NewServerMaxThroughput(189, 0)
	if err != nil {
		t.Fatal(err)
	}
	x25, err := rel3.NewServerMaxThroughput(189, 25)
	if err != nil {
		t.Fatal(err)
	}
	if x25 >= x0 {
		t.Fatalf("buy mix must lower max throughput: %v vs %v", x25, x0)
	}
	// The paper's LQNS points: 189 → 158 req/s, a ~16% drop. Ours
	// should drop by a broadly similar factor.
	drop := (x0 - x25) / x0
	if drop < 0.05 || drop > 0.35 {
		t.Fatalf("0→25%% buy throughput drop = %v", drop)
	}
	if _, _, err := BuildRelationship3(caseConfig(), workload.AppServF(), []float64{0}); err == nil {
		t.Fatal("one buy point should fail")
	}
}

func TestSpread(t *testing.T) {
	got := Spread(0.2, 0.6, 3)
	want := []float64{0.2, 0.4, 0.6}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("spread = %v, want %v", got, want)
		}
	}
	if one := Spread(1, 2, 1); len(one) != 1 || one[0] != 1.5 {
		t.Fatalf("spread count 1 = %v", one)
	}
}

// TestBuildServerMixZeroMatchesBuild pins the serving cache's
// compatibility contract: a buy fraction of 0 must produce exactly the
// model Build produces for that architecture, parameter for parameter.
func TestBuildServerMixZeroMatchesBuild(t *testing.T) {
	arch := workload.AppServF()
	m, err := Build(caseConfig(), []workload.ServerArch{arch})
	if err != nil {
		t.Fatal(err)
	}
	sm, evals, err := BuildServerMix(caseConfig(), arch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 4+4+2 {
		t.Fatalf("evaluations = %d, want 10", evals)
	}
	want := m.Servers[arch.Name]
	if sm.MaxThroughput != want.MaxThroughput || sm.M != want.M ||
		sm.CL != want.CL || sm.LambdaL != want.LambdaL ||
		sm.CU != want.CU || sm.LambdaU != want.LambdaU {
		t.Fatalf("mix-0 model %+v differs from Build's %+v", sm, want)
	}
}

// TestBuildServerMixHeavierMix checks that a buy-heavy mix calibrates
// a model with lower capacity than all-browse: buy requests consume
// more of every resource, so the layered pseudo data must push max
// throughput down, exactly as the paper's figure 4 trend.
func TestBuildServerMixHeavierMix(t *testing.T) {
	arch := workload.AppServF()
	browse, _, err := BuildServerMix(caseConfig(), arch, 0)
	if err != nil {
		t.Fatal(err)
	}
	mixed, _, err := BuildServerMix(caseConfig(), arch, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mixed.Validate(); err != nil {
		t.Fatalf("mixed model invalid: %v", err)
	}
	if mixed.MaxThroughput >= browse.MaxThroughput {
		t.Fatalf("30%% buy Xmax %v not below all-browse %v", mixed.MaxThroughput, browse.MaxThroughput)
	}
	if _, _, err := BuildServerMix(caseConfig(), arch, 1.5); err == nil {
		t.Fatal("buy fraction > 1 should fail")
	}
}
