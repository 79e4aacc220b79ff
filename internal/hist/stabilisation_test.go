package hist

import (
	"math"
	"testing"

	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

func syntheticTrajectory(steady, r0, tau float64, n int, dt float64) []StabilisationPoint {
	pts := make([]StabilisationPoint, n)
	for i := range pts {
		t := float64(i+1) * dt
		pts[i] = StabilisationPoint{Time: t, MeanRT: steady + (r0-steady)*math.Exp(-t/tau)}
	}
	return pts
}

func TestFitStabilisationRecoversKnownModel(t *testing.T) {
	const steady, r0, tau = 0.200, 0.020, 30.0
	m, err := FitStabilisation(syntheticTrajectory(steady, r0, tau, 40, 5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Steady-steady)/steady > 0.05 {
		t.Fatalf("steady = %v, want %v", m.Steady, steady)
	}
	if math.Abs(m.Tau-tau)/tau > 0.25 {
		t.Fatalf("tau = %v, want ≈%v", m.Tau, tau)
	}
	// The model reproduces the trajectory.
	for _, tm := range []float64{10, 50, 150} {
		want := steady + (r0-steady)*math.Exp(-tm/tau)
		if got := m.At(tm); math.Abs(got-want)/want > 0.15 {
			t.Fatalf("At(%v) = %v, want ≈%v", tm, got, want)
		}
	}
}

func TestFitStabilisationAlreadySteady(t *testing.T) {
	pts := make([]StabilisationPoint, 10)
	for i := range pts {
		pts[i] = StabilisationPoint{Time: float64(i + 1), MeanRT: 0.1}
	}
	m, err := FitStabilisation(pts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tau != 0 {
		t.Fatalf("flat trajectory should fit Tau=0, got %v", m.Tau)
	}
	if m.TimeToSteady(0.05) != 0 {
		t.Fatal("flat trajectory is steady immediately")
	}
	if m.At(42) != 0.1 {
		t.Fatalf("At = %v", m.At(42))
	}
}

// TestFitStabilisationUndershootWithNoisyFirstBucket pins the sign
// choice for R0: a ramp-up (undershoot) trajectory whose very first
// bucket is a noise spike sitting *above* the steady level. Deciding
// the approach direction from points[0] alone would read the spike as
// an overshoot and flip R0 to the wrong side of steady; the aggregate
// over the fitted points must recover the undershoot.
func TestFitStabilisationUndershootWithNoisyFirstBucket(t *testing.T) {
	const steady, r0, tau = 0.200, 0.020, 30.0
	pts := syntheticTrajectory(steady, r0, tau, 40, 5)
	// One noisy early sample on the wrong side of steady (gap well
	// beyond the 2% noise floor).
	pts[0].MeanRT = steady * 1.15
	m, err := FitStabilisation(pts)
	if err != nil {
		t.Fatal(err)
	}
	if m.R0 >= m.Steady {
		t.Fatalf("undershoot trajectory fitted R0 %v above steady %v: noisy first bucket flipped the sign", m.R0, m.Steady)
	}
	// The model still tracks the true trajectory away from the spike.
	for _, tm := range []float64{20, 50, 150} {
		want := steady + (r0-steady)*math.Exp(-tm/tau)
		if got := m.At(tm); math.Abs(got-want)/want > 0.20 {
			t.Fatalf("At(%v) = %v, want ≈%v", tm, got, want)
		}
	}
}

func TestFitStabilisationErrors(t *testing.T) {
	if _, err := FitStabilisation(nil); err == nil {
		t.Fatal("empty input should fail")
	}
	short := syntheticTrajectory(0.2, 0.02, 30, 4, 5)
	if _, err := FitStabilisation(short); err == nil {
		t.Fatal("too few points should fail")
	}
	bad := syntheticTrajectory(0.2, 0.02, 30, 10, 5)
	bad[0].Time = -1
	if _, err := FitStabilisation(bad); err == nil {
		t.Fatal("invalid point should fail")
	}
}

func TestTimeToSteadyOrdering(t *testing.T) {
	m := &StabilisationModel{Steady: 0.2, R0: 0.02, Tau: 30}
	loose := m.TimeToSteady(0.10)
	tight := m.TimeToSteady(0.01)
	if loose >= tight {
		t.Fatalf("tighter tolerance needs longer settling: %v vs %v", loose, tight)
	}
	if m.TimeToSteady(100) != 0 {
		t.Fatal("huge tolerance is immediately satisfied")
	}
}

// TestStabilisationFromSimulator fits the model to a genuine cold-start
// trajectory from the simulated testbed: a heavily loaded server's
// response time ramps up as the client population's requests pile in,
// and the fitted model should localise the settling time.
func TestStabilisationFromSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed test")
	}
	cfg := trade.Config{
		Server:   workload.AppServF(),
		DB:       workload.CaseStudyDB(),
		Demands:  workload.CaseStudyDemands(),
		Load:     workload.TypicalWorkload(1900), // past saturation
		Seed:     23,
		WarmUp:   0,
		Duration: 400,
	}
	curve, err := trade.Windows(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	var pts []StabilisationPoint
	for _, p := range curve {
		if p.Completed > 0 {
			pts = append(pts, StabilisationPoint{Time: p.End, MeanRT: p.MeanRT})
		}
	}
	m, err := FitStabilisation(pts)
	if err != nil {
		t.Fatal(err)
	}
	// The trajectory ramps up: early RT below steady.
	if pts[0].MeanRT >= m.Steady {
		t.Fatalf("cold-start RT %v should sit below steady %v", pts[0].MeanRT, m.Steady)
	}
	settle := m.TimeToSteady(0.05)
	if settle <= 0 || settle > cfg.Duration {
		t.Fatalf("settling time = %v, want within the observation window", settle)
	}
	t.Logf("steady RT %.0f ms, settles within 5%% after %.0f s", m.Steady*1000, settle)
}
