package hist

import (
	"math"
	"testing"
	"testing/quick"

	"perfpred/internal/workload"
)

// caseModelF returns a hand-built model shaped like the paper's
// AppServF row of Table 1 (times in seconds here).
func caseModelF() *ServerModel {
	return &ServerModel{
		Arch:          workload.AppServF(),
		MaxThroughput: 186,
		CL:            0.0841,  // 84.1 ms
		LambdaL:       0.0001,  // Table 1
		LambdaU:       0.00538, // ≈ 1/Xmax seconds per client
		CU:            -7.0,    // upper line crosses N* near RT≈0.6s
		M:             0.14,
	}
}

func TestModelValidate(t *testing.T) {
	if err := caseModelF().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := caseModelF()
	bad.MaxThroughput = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero max throughput should fail")
	}
	bad = caseModelF()
	bad.CL = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero cL should fail")
	}
	bad = caseModelF()
	bad.M = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero m should fail")
	}
	bad = caseModelF()
	bad.LambdaU = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero λU should fail")
	}
}

func TestSaturationClients(t *testing.T) {
	m := caseModelF()
	want := 186 / 0.14
	if got := m.SaturationClients(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("N* = %v, want %v", got, want)
	}
}

func TestPredictRegions(t *testing.T) {
	m := caseModelF()
	nStar := m.SaturationClients()
	// Deep in the lower region, Predict is exactly the lower equation.
	n := 0.3 * nStar
	if got, want := m.Predict(n), m.Lower(n); math.Abs(got-want) > 1e-12 {
		t.Fatalf("lower region predict = %v, want %v", got, want)
	}
	// Deep in the upper region, Predict is exactly the upper equation.
	n = 1.5 * nStar
	if got, want := m.Predict(n), m.Upper(n); math.Abs(got-want) > 1e-12 {
		t.Fatalf("upper region predict = %v, want %v", got, want)
	}
	// The transition is continuous at both edges.
	lo, hi := TransitionLow*nStar, TransitionHigh*nStar
	if d := math.Abs(m.Predict(lo) - m.Lower(lo)); d > 1e-9 {
		t.Fatalf("discontinuity %v at lower edge", d)
	}
	if d := math.Abs(m.Predict(hi) - m.Upper(hi)); d > 1e-9 {
		t.Fatalf("discontinuity %v at upper edge", d)
	}
}

func TestPredictThroughput(t *testing.T) {
	m := caseModelF()
	if got := m.PredictThroughput(500); math.Abs(got-70) > 1e-9 {
		t.Fatalf("X(500) = %v, want 70", got)
	}
	if got := m.PredictThroughput(5000); got != 186 {
		t.Fatalf("X past saturation = %v, want 186 (constant)", got)
	}
}

func TestSaturatedFlag(t *testing.T) {
	m := caseModelF()
	nStar := m.SaturationClients()
	if m.Saturated(nStar - 1) {
		t.Fatal("below N* should not be saturated")
	}
	if !m.Saturated(nStar + 1) {
		t.Fatal("above N* should be saturated")
	}
}

func TestMaxClientsInversion(t *testing.T) {
	m := caseModelF()
	for _, goal := range []float64{0.1, 0.3, 0.6, 2.0, 5.0} {
		n, err := m.MaxClients(goal)
		if err != nil {
			t.Fatal(err)
		}
		if n < 0 {
			t.Fatalf("goal %v: negative clients %v", goal, n)
		}
		// The prediction at the answer meets the goal; slightly above
		// it misses (within numeric tolerance).
		if rt := m.Predict(n); rt > goal*1.0001 {
			t.Fatalf("goal %v: RT at max clients = %v", goal, rt)
		}
		if rt := m.Predict(n * 1.02); rt < goal*0.999 && n > 1 {
			t.Fatalf("goal %v: RT just above max clients = %v, still under goal", goal, rt)
		}
	}
	if _, err := m.MaxClients(0); err == nil {
		t.Fatal("expected error for zero goal")
	}
	// A goal below cL means even one client misses.
	n, err := m.MaxClients(m.CL / 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("unreachable goal: max clients = %v, want 0", n)
	}
}

func TestPredictPercentileAboveMean(t *testing.T) {
	m := caseModelF()
	nStar := m.SaturationClients()
	for _, n := range []float64{0.3 * nStar, 1.5 * nStar} {
		mean := m.Predict(n)
		p90, err := m.PredictPercentile(n, 0.90, 0.2041)
		if err != nil {
			t.Fatal(err)
		}
		if p90 <= mean {
			t.Fatalf("p90 %v should exceed mean %v at n=%v", p90, mean, n)
		}
		// p is a fraction; the conversion rejects rather than clamps.
		for _, p := range []float64{90, 0, 1, math.NaN()} {
			if x, err := m.PredictPercentile(n, p, 0.2041); err == nil {
				t.Fatalf("PredictPercentile(%v, p=%v) = %v, want an error", n, p, x)
			}
		}
	}
}

// Property: Predict is monotone non-decreasing in the client count for
// the case-study parameter shapes (positive cL, λL, λU; upper above
// lower at the knee), so the MaxClients bisection is sound.
func TestPredictMonotoneProperty(t *testing.T) {
	m := caseModelF()
	f := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 3000)
		b = math.Mod(math.Abs(b), 3000)
		if a > b {
			a, b = b, a
		}
		return m.Predict(a) <= m.Predict(b)*1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
