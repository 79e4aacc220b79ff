package rtdist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExponentialBasics(t *testing.T) {
	d, err := NewExponential(100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() != 100 {
		t.Fatalf("mean = %v, want 100", d.Mean())
	}
	if got := d.CDF(0); got != 0 {
		t.Fatalf("CDF(0) = %v, want 0", got)
	}
	if got := d.CDF(-5); got != 0 {
		t.Fatalf("CDF(-5) = %v, want 0", got)
	}
	// Median of exponential = mean * ln 2.
	if got, want := d.Quantile(0.5), 100*math.Ln2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("median = %v, want %v", got, want)
	}
	// 90th percentile of the SLA form used in §7.1.
	if got, want := d.Quantile(0.9), -100*math.Log(0.1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("p90 = %v, want %v", got, want)
	}
	if _, err := NewExponential(0); err == nil {
		t.Fatal("expected error for rp=0")
	}
	if _, err := NewExponential(-1); err == nil {
		t.Fatal("expected error for rp<0")
	}
}

func TestLaplaceBasics(t *testing.T) {
	d, err := NewLaplace(600, PaperScaleB)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() != 600 || d.Scale() != PaperScaleB {
		t.Fatalf("mean/scale = %v/%v", d.Mean(), d.Scale())
	}
	// Symmetry: CDF at the location is exactly 1/2.
	if got := d.CDF(600); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CDF(a) = %v, want 0.5", got)
	}
	// Symmetric tails: P(X <= a-t) == 1 - P(X <= a+t).
	for _, tail := range []float64{10, 100, 500} {
		lo, hi := d.CDF(600-tail), d.CDF(600+tail)
		if math.Abs(lo-(1-hi)) > 1e-12 {
			t.Fatalf("asymmetric tails at %v: %v vs %v", tail, lo, 1-hi)
		}
	}
	if _, err := NewLaplace(600, 0); err == nil {
		t.Fatal("expected error for b=0")
	}
	if _, err := NewLaplace(0, 10); err == nil {
		t.Fatal("expected error for rp=0")
	}
}

func TestQuantileCDFRoundTrip(t *testing.T) {
	exp, _ := NewExponential(250)
	lap, _ := NewLaplace(250, 204.1)
	for _, d := range []Distribution{exp, lap} {
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
			x := d.Quantile(p)
			if got := d.CDF(x); math.Abs(got-p) > 1e-9 {
				t.Fatalf("CDF(Quantile(%v)) = %v", p, got)
			}
		}
	}
}

func TestQuantileClamping(t *testing.T) {
	d, _ := NewExponential(100)
	if q := d.Quantile(0); math.IsInf(q, 0) || math.IsNaN(q) {
		t.Fatalf("Quantile(0) not clamped: %v", q)
	}
	if q := d.Quantile(1); math.IsInf(q, 0) || math.IsNaN(q) {
		t.Fatalf("Quantile(1) not clamped: %v", q)
	}
	if d.Quantile(0.2) >= d.Quantile(0.8) {
		t.Fatal("quantile not monotone")
	}
}

func TestForMeanPrediction(t *testing.T) {
	pre, err := ForMeanPrediction(120, false, PaperScaleB)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pre.(Exponential); !ok {
		t.Fatalf("pre-saturation distribution is %T, want Exponential", pre)
	}
	post, err := ForMeanPrediction(800, true, PaperScaleB)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := post.(Laplace); !ok {
		t.Fatalf("post-saturation distribution is %T, want Laplace", post)
	}
	if _, err := ForMeanPrediction(-1, false, PaperScaleB); err == nil {
		t.Fatal("expected error for negative mean")
	}
}

func TestPercentileFromMean(t *testing.T) {
	// §7.1 converts figure-2 mean predictions to p=90% metrics.
	got, err := PercentileFromMean(100, false, PaperScaleB, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	want := -100 * math.Log(0.1)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("pre-saturation p90 = %v, want %v", got, want)
	}
	got, err = PercentileFromMean(700, true, PaperScaleB, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	want = 700 - PaperScaleB*math.Log(2*0.1)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("post-saturation p90 = %v, want %v", got, want)
	}
	if got <= 700 {
		t.Fatal("p90 of a saturated server must exceed the mean")
	}
}

func TestCalibrateScale(t *testing.T) {
	// Draw from a known Laplace and recover b by mean absolute
	// deviation around the known location.
	rng := rand.New(rand.NewSource(7))
	const a, b = 600.0, 204.1
	samples := make([]float64, 20000)
	for i := range samples {
		u := rng.Float64() - 0.5
		sign := 1.0
		if u < 0 {
			sign = -1.0
		}
		samples[i] = a - b*sign*math.Log(1-2*math.Abs(u))
	}
	got, err := CalibrateScale(a, samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-b)/b > 0.05 {
		t.Fatalf("calibrated b = %v, want ≈%v", got, b)
	}
	// Split across slices, deviations are summed in the same order.
	if split, err := CalibrateScale(a, samples[:7001], nil, samples[7001:]); err != nil || math.Float64bits(split) != math.Float64bits(got) {
		t.Fatalf("split samples give b = %v (%v), one slice %v", split, err, got)
	}
	if _, err := CalibrateScale(a); err == nil {
		t.Fatal("expected error for empty samples")
	}
	if _, err := CalibrateScale(a, []float64{a, a, a}); err == nil {
		t.Fatal("expected error for degenerate samples")
	}
}

// Property: both CDFs are monotone non-decreasing and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(rp, b, x1, x2 float64) bool {
		rp = 1 + math.Mod(math.Abs(rp), 1000)
		b = 1 + math.Mod(math.Abs(b), 500)
		x1 = math.Mod(x1, 5000)
		x2 = math.Mod(x2, 5000)
		if math.IsNaN(x1) || math.IsNaN(x2) {
			return true
		}
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		exp, err1 := NewExponential(rp)
		lap, err2 := NewLaplace(rp, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for _, d := range []Distribution{exp, lap} {
			c1, c2 := d.CDF(x1), d.CDF(x2)
			if c1 > c2 || c1 < 0 || c2 > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: higher mean predictions give higher percentile predictions
// for a fixed p — the transformation preserves the ordering of
// figure 2's curves.
func TestPercentileOrderPreservingProperty(t *testing.T) {
	f := func(m1, m2 float64, saturated bool) bool {
		m1 = 1 + math.Mod(math.Abs(m1), 2000)
		m2 = 1 + math.Mod(math.Abs(m2), 2000)
		if m1 > m2 {
			m1, m2 = m2, m1
		}
		p1, err1 := PercentileFromMean(m1, saturated, PaperScaleB, 0.9)
		p2, err2 := PercentileFromMean(m2, saturated, PaperScaleB, 0.9)
		if err1 != nil || err2 != nil {
			return false
		}
		return p1 <= p2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
