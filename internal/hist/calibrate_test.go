package hist

import (
	"math"
	"testing"

	"perfpred/internal/workload"
)

// syntheticPoints generates exact data points from a known model's
// lower and upper equations: nl points below the transition band and
// nu above it.
func syntheticPoints(m *ServerModel, nl, nu int) []DataPoint {
	nStar := m.SaturationClients()
	var pts []DataPoint
	for i := 0; i < nl; i++ {
		n := (0.1 + 0.5*float64(i)/float64(nl)) * nStar
		pts = append(pts, DataPoint{Clients: n, MeanRT: m.Lower(n), Samples: 50})
	}
	for i := 0; i < nu; i++ {
		n := (1.15 + 0.5*float64(i)/float64(nu)) * nStar
		pts = append(pts, DataPoint{Clients: n, MeanRT: m.Upper(n), Samples: 50})
	}
	return pts
}

func TestCalibrateGradient(t *testing.T) {
	m, err := CalibrateGradient([]ThroughputPoint{
		{Clients: 100, Throughput: 14},
		{Clients: 500, Throughput: 70},
		{Clients: 900, Throughput: 126},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.14) > 1e-9 {
		t.Fatalf("m = %v, want 0.14", m)
	}
	// A single point also works (ratio).
	m, err = CalibrateGradient([]ThroughputPoint{{Clients: 200, Throughput: 28}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.14) > 1e-9 {
		t.Fatalf("single-point m = %v, want 0.14", m)
	}
	if _, err := CalibrateGradient(nil); err == nil {
		t.Fatal("expected error for no points")
	}
}

func TestCalibrateServerRecoversTruth(t *testing.T) {
	truth := caseModelF()
	pts := syntheticPoints(truth, 4, 4)
	got, err := CalibrateServer(truth.Arch, truth.MaxThroughput, truth.M, pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.CL-truth.CL)/truth.CL > 1e-6 {
		t.Fatalf("cL = %v, want %v", got.CL, truth.CL)
	}
	if math.Abs(got.LambdaL-truth.LambdaL)/truth.LambdaL > 1e-6 {
		t.Fatalf("λL = %v, want %v", got.LambdaL, truth.LambdaL)
	}
	if math.Abs(got.LambdaU-truth.LambdaU)/truth.LambdaU > 1e-6 {
		t.Fatalf("λU = %v, want %v", got.LambdaU, truth.LambdaU)
	}
	if math.Abs(got.CU-truth.CU) > 1e-6 {
		t.Fatalf("cU = %v, want %v", got.CU, truth.CU)
	}
}

func TestCalibrateServerTwoPointsSuffice(t *testing.T) {
	// The paper's headline: accurate calibration with nldp = nudp = 2.
	truth := caseModelF()
	pts := syntheticPoints(truth, 2, 2)
	got, err := CalibrateServer(truth.Arch, truth.MaxThroughput, truth.M, pts)
	if err != nil {
		t.Fatal(err)
	}
	nStar := truth.SaturationClients()
	for _, n := range []float64{0.2 * nStar, 0.5 * nStar, 1.3 * nStar, 1.8 * nStar} {
		want := truth.Predict(n)
		if math.Abs(got.Predict(n)-want)/want > 1e-6 {
			t.Fatalf("two-point model predict(%v) = %v, want %v", n, got.Predict(n), want)
		}
	}
}

func TestCalibrateServerErrors(t *testing.T) {
	truth := caseModelF()
	pts := syntheticPoints(truth, 4, 4)
	if _, err := CalibrateServer(truth.Arch, 0, truth.M, pts); err == nil {
		t.Fatal("zero max throughput should fail")
	}
	if _, err := CalibrateServer(truth.Arch, truth.MaxThroughput, 0, pts); err == nil {
		t.Fatal("zero gradient should fail")
	}
	// Only lower points: cannot fit the upper equation.
	if _, err := CalibrateServer(truth.Arch, truth.MaxThroughput, truth.M, syntheticPoints(truth, 4, 0)); err == nil {
		t.Fatal("missing upper points should fail")
	}
	if _, err := CalibrateServer(truth.Arch, truth.MaxThroughput, truth.M, syntheticPoints(truth, 0, 4)); err == nil {
		t.Fatal("missing lower points should fail")
	}
	bad := append(syntheticPoints(truth, 2, 2), DataPoint{Clients: -5, MeanRT: 0.1})
	if _, err := CalibrateServer(truth.Arch, truth.MaxThroughput, truth.M, bad); err == nil {
		t.Fatal("negative clients should fail")
	}
	// Points inside the transition band are ignored, which can starve
	// an equation of data.
	nStar := truth.SaturationClients()
	onlyTransition := []DataPoint{
		{Clients: 0.8 * nStar, MeanRT: 0.3},
		{Clients: 0.9 * nStar, MeanRT: 0.4},
		{Clients: 1.2 * nStar, MeanRT: 1.0},
		{Clients: 1.5 * nStar, MeanRT: 2.0},
	}
	if _, err := CalibrateServer(truth.Arch, truth.MaxThroughput, truth.M, onlyTransition); err == nil {
		t.Fatal("transition-band-only lower data should fail")
	}
}

func TestEvaluateAccuracy(t *testing.T) {
	truth := caseModelF()
	exact := syntheticPoints(truth, 3, 3)
	if acc := EvaluateAccuracy(truth, exact); math.Abs(acc-100) > 1e-6 {
		t.Fatalf("accuracy on exact data = %v, want 100", acc)
	}
	// 10% inflated measurements → ~90.9% accuracy (|p-a|/a with a=1.1p).
	inflated := make([]DataPoint, len(exact))
	for i, p := range exact {
		inflated[i] = DataPoint{Clients: p.Clients, MeanRT: p.MeanRT * 1.1}
	}
	acc := EvaluateAccuracy(truth, inflated)
	if math.Abs(acc-(100-100*0.1/1.1)) > 0.01 {
		t.Fatalf("accuracy on inflated data = %v", acc)
	}
}

func TestEvaluateEquationAccuracy(t *testing.T) {
	truth := caseModelF()
	pts := syntheticPoints(truth, 3, 3)
	lower, upper, overall := EvaluateEquationAccuracy(truth, pts)
	if math.Abs(lower-100) > 1e-6 || math.Abs(upper-100) > 1e-6 {
		t.Fatalf("per-equation accuracies = %v/%v, want 100/100", lower, upper)
	}
	if math.Abs(overall-(lower+upper)/2) > 1e-9 {
		t.Fatalf("overall = %v, want mean of equations", overall)
	}
	// Only lower-region points: overall equals the lower accuracy.
	_, _, lowOnly := EvaluateEquationAccuracy(truth, syntheticPoints(truth, 3, 0))
	if math.Abs(lowOnly-100) > 1e-6 {
		t.Fatalf("lower-only overall = %v", lowOnly)
	}
}

func TestRelationship2ExactRecovery(t *testing.T) {
	// Build two established models whose parameters follow exact §4.2
	// scaling laws, fit relationship 2, and predict a third server.
	mkModel := func(x float64, arch workload.ServerArch) *ServerModel {
		return &ServerModel{
			Arch:          arch,
			MaxThroughput: x,
			CL:            0.0002*x + 0.05,         // linear in X
			LambdaL:       3.0 * math.Pow(x, -1.8), // power law in X
			LambdaU:       1.0 / x,                 // inverse in X
			CU:            -7,                      // constant
			M:             0.14,
		}
	}
	f := mkModel(186, workload.AppServF())
	vf := mkModel(320, workload.AppServVF())
	rel2, err := FitRelationship2([]*ServerModel{f, vf})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rel2.NewServerModel(workload.AppServS(), 86)
	if err != nil {
		t.Fatal(err)
	}
	want := mkModel(86, workload.AppServS())
	if math.Abs(s.CL-want.CL)/want.CL > 1e-6 {
		t.Fatalf("new server cL = %v, want %v", s.CL, want.CL)
	}
	if math.Abs(s.LambdaL-want.LambdaL)/want.LambdaL > 1e-6 {
		t.Fatalf("new server λL = %v, want %v", s.LambdaL, want.LambdaL)
	}
	if math.Abs(s.LambdaU-want.LambdaU)/want.LambdaU > 1e-6 {
		t.Fatalf("new server λU = %v, want %v", s.LambdaU, want.LambdaU)
	}
	if s.CU != -7 || s.M != 0.14 {
		t.Fatalf("cU/m not carried: %v/%v", s.CU, s.M)
	}
}

func TestRelationship2Errors(t *testing.T) {
	if _, err := FitRelationship2([]*ServerModel{caseModelF()}); err == nil {
		t.Fatal("one model should fail")
	}
	f := caseModelF()
	vf := caseModelF()
	vf.MaxThroughput = 320
	rel2, err := FitRelationship2([]*ServerModel{f, vf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rel2.NewServerModel(workload.AppServS(), 0); err == nil {
		t.Fatal("zero max throughput should fail")
	}
}

func TestRelationship3(t *testing.T) {
	// The paper's LQNS-generated points: AppServF at 189 and 158 req/s
	// for 0% and 25% buy.
	rel3, err := FitRelationship3([]BuyPoint{
		{BuyPct: 0, MaxThroughput: 189},
		{BuyPct: 25, MaxThroughput: 158},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rel3.line.Eval(0); math.Abs(got-189) > 1e-9 {
		t.Fatalf("X_E(0) = %v", got)
	}
	if got := rel3.line.Eval(25); math.Abs(got-158) > 1e-9 {
		t.Fatalf("X_E(25) = %v", got)
	}
	// Equation 5 for the new server with X_N(0) = 86.
	got, err := rel3.NewServerMaxThroughput(86, 25)
	if err != nil {
		t.Fatal(err)
	}
	want := 158.0 * 86 / 189
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("X_N(25) = %v, want %v", got, want)
	}
	if _, err := rel3.NewServerMaxThroughput(0, 25); err == nil {
		t.Fatal("zero new-server throughput should fail")
	}
}

func TestRelationship3Errors(t *testing.T) {
	if _, err := FitRelationship3([]BuyPoint{{BuyPct: 0, MaxThroughput: 189}}); err == nil {
		t.Fatal("one point should fail")
	}
	if _, err := FitRelationship3([]BuyPoint{
		{BuyPct: -5, MaxThroughput: 189}, {BuyPct: 25, MaxThroughput: 158},
	}); err == nil {
		t.Fatal("negative buy pct should fail")
	}
	if _, err := FitRelationship3([]BuyPoint{
		{BuyPct: 0, MaxThroughput: 0}, {BuyPct: 25, MaxThroughput: 158},
	}); err == nil {
		t.Fatal("zero throughput should fail")
	}
}
