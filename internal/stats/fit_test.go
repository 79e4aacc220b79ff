package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func near(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 7
	}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	near(t, m.Slope, 3, 1e-12, "slope")
	near(t, m.Intercept, 7, 1e-12, "intercept")
	near(t, m.R2, 1, 1e-12, "r2")
}

func TestFitLinearNoisy(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	ys := []float64{1.1, 2.9, 5.2, 6.8, 9.1, 10.9, 13.2, 14.8}
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	near(t, m.Slope, 2, 0.1, "slope")
	near(t, m.Intercept, 1, 0.4, "intercept")
	if m.R2 < 0.99 {
		t.Fatalf("R2 = %v, want >= 0.99", m.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{2}); err == nil {
		t.Fatal("expected error for single point")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{2}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
	if _, err := FitLinear([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error for identical x values")
	}
}

func TestFitExponentialExact(t *testing.T) {
	// mrt = cL * e^(λL*N), the paper's lower equation (1).
	cL, lamL := 84.1, 0.0001 // AppServF row of Table 1
	xs := []float64{100, 500, 1000, 1500, 2000}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = cL * math.Exp(lamL*x)
	}
	m, err := FitExponential(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	near(t, m.Coeff, cL, 1e-9, "cL")
	near(t, m.Rate, lamL, 1e-12, "lambdaL")
}

func TestFitExponentialTwoPoints(t *testing.T) {
	// The paper shows accurate calibration with nldp = 2 data points.
	m, err := FitExponential([]float64{100, 900}, []float64{50, 150})
	if err != nil {
		t.Fatal(err)
	}
	near(t, m.Eval(100), 50, 1e-9, "y(100)")
	near(t, m.Eval(900), 150, 1e-9, "y(900)")
}

func TestFitExponentialRejectsNonPositive(t *testing.T) {
	if _, err := FitExponential([]float64{1, 2}, []float64{1, -1}); err == nil {
		t.Fatal("expected error for non-positive y")
	}
	if _, err := FitExponential([]float64{1, 2}, []float64{0, 1}); err == nil {
		t.Fatal("expected error for zero y")
	}
}

func TestFitPowerExact(t *testing.T) {
	// λL = C * X^Δ, the paper's relationship-2 equation (4).
	c, d := 3.5, -1.8
	xs := []float64{86, 186, 320}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = c * math.Pow(x, d)
	}
	m, err := FitPower(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	near(t, m.Coeff, c, 1e-9, "C")
	near(t, m.Exp, d, 1e-12, "Δ")
	if !math.IsNaN(m.Eval(-1)) {
		t.Fatal("Eval of negative x should be NaN")
	}
}

func TestFitProportional(t *testing.T) {
	// Throughput = m * clients with the paper's m = 0.14.
	xs := []float64{100, 200, 400, 800}
	ys := []float64{14, 28, 56, 112}
	m, err := FitProportional(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	near(t, m, 0.14, 1e-12, "gradient m")
	if _, err := FitProportional([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for all-zero x")
	}
}

// Property: a linear fit through points generated from any line
// recovers that line, for all finite slopes/intercepts.
func TestFitLinearRecoversLineProperty(t *testing.T) {
	f := func(slope, intercept float64) bool {
		if math.IsNaN(slope) || math.IsInf(slope, 0) || math.Abs(slope) > 1e6 {
			return true
		}
		if math.IsNaN(intercept) || math.IsInf(intercept, 0) || math.Abs(intercept) > 1e6 {
			return true
		}
		xs := []float64{-2, 1, 3, 8, 13}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = slope*x + intercept
		}
		m, err := FitLinear(xs, ys)
		if err != nil {
			return false
		}
		tol := 1e-6 * (1 + math.Abs(slope) + math.Abs(intercept))
		return math.Abs(m.Slope-slope) <= tol && math.Abs(m.Intercept-intercept) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
