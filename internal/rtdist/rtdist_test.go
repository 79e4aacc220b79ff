package rtdist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quantile is PercentileFromMean for inputs the test knows are valid.
func quantile(t *testing.T, rp float64, saturated bool, b, p float64) float64 {
	t.Helper()
	x, err := PercentileFromMean(rp, saturated, b, p)
	if err != nil {
		t.Fatalf("PercentileFromMean(%v, %v, %v, %v): %v", rp, saturated, b, p, err)
	}
	return x
}

// The CDFs of equations (6) and (7), the references the quantiles
// invert.
func exponentialCDF(rp, x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-x/rp)
}

func laplaceCDF(a, b, x float64) float64 {
	if x < a {
		return 0.5 * math.Exp((x-a)/b)
	}
	return 1 - 0.5*math.Exp(-(x-a)/b)
}

func TestExponentialBasics(t *testing.T) {
	// Median of exponential = mean * ln 2.
	if got, want := quantile(t, 100, false, PaperScaleB, 0.5), 100*math.Ln2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("median = %v, want %v", got, want)
	}
	// 90th percentile of the SLA form used in §7.1.
	if got, want := quantile(t, 100, false, PaperScaleB, 0.9), -100*math.Log(0.1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("p90 = %v, want %v", got, want)
	}
	// Below saturation b plays no part, so any b is accepted.
	if _, err := PercentileFromMean(100, false, 0, 0.9); err != nil {
		t.Fatalf("pre-saturation conversion rejected b = 0: %v", err)
	}
	if _, err := PercentileFromMean(0, false, PaperScaleB, 0.9); err == nil {
		t.Fatal("expected error for rp=0")
	}
	if _, err := PercentileFromMean(-1, false, PaperScaleB, 0.9); err == nil {
		t.Fatal("expected error for rp<0")
	}
}

func TestLaplaceBasics(t *testing.T) {
	// Symmetry: the median is exactly the location.
	if got := quantile(t, 600, true, PaperScaleB, 0.5); got != 600 {
		t.Fatalf("median = %v, want 600", got)
	}
	// Symmetric tails: x(p) − a == a − x(1−p).
	for _, p := range []float64{0.01, 0.1, 0.3} {
		lo, hi := quantile(t, 600, true, PaperScaleB, p), quantile(t, 600, true, PaperScaleB, 1-p)
		if math.Abs((600-lo)-(hi-600)) > 1e-9 {
			t.Fatalf("asymmetric tails at %v: %v vs %v", p, 600-lo, hi-600)
		}
	}
	if _, err := PercentileFromMean(600, true, 0, 0.9); err == nil {
		t.Fatal("expected error for b=0")
	}
	if _, err := PercentileFromMean(0, true, 10, 0.9); err == nil {
		t.Fatal("expected error for rp=0")
	}
}

func TestQuantileCDFRoundTrip(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		if got := exponentialCDF(250, quantile(t, 250, false, 204.1, p)); math.Abs(got-p) > 1e-9 {
			t.Fatalf("exponential CDF(quantile(%v)) = %v", p, got)
		}
		if got := laplaceCDF(250, 204.1, quantile(t, 250, true, 204.1, p)); math.Abs(got-p) > 1e-9 {
			t.Fatalf("Laplace CDF(quantile(%v)) = %v", p, got)
		}
	}
}

// p inside (0,1) but within 1e-12 of either end is held there, so the
// logarithms stay finite; p at or beyond the ends is an error.
func TestQuantileClamping(t *testing.T) {
	for _, saturated := range []bool{false, true} {
		for _, p := range []float64{1e-15, 1 - 1e-15} {
			if q := quantile(t, 100, saturated, PaperScaleB, p); math.IsInf(q, 0) || math.IsNaN(q) {
				t.Fatalf("saturated=%v quantile(%v) not clamped: %v", saturated, p, q)
			}
		}
		if quantile(t, 100, saturated, PaperScaleB, 0.2) >= quantile(t, 100, saturated, PaperScaleB, 0.8) {
			t.Fatal("quantile not monotone")
		}
	}
}

func TestForMeanPrediction(t *testing.T) {
	// The saturated flag selects the distribution: exponential below
	// saturation, Laplace(rp, b) at or above it.
	if got, want := quantile(t, 120, false, PaperScaleB, 0.9), -120*math.Log(0.1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("pre-saturation p90 = %v, want the exponential's %v", got, want)
	}
	if got, want := quantile(t, 800, true, PaperScaleB, 0.9), 800-PaperScaleB*math.Log(0.2); math.Abs(got-want) > 1e-9 {
		t.Fatalf("post-saturation p90 = %v, want the Laplace's %v", got, want)
	}
	if _, err := PercentileFromMean(-1, false, PaperScaleB, 0.9); err == nil {
		t.Fatal("expected error for negative mean")
	}
}

func TestPercentileFromMean(t *testing.T) {
	// §7.1 converts figure-2 mean predictions to p=90% metrics.
	got := quantile(t, 100, false, PaperScaleB, 0.9)
	want := -100 * math.Log(0.1)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("pre-saturation p90 = %v, want %v", got, want)
	}
	got = quantile(t, 700, true, PaperScaleB, 0.9)
	want = 700 - PaperScaleB*math.Log(2*0.1)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("post-saturation p90 = %v, want %v", got, want)
	}
	if got <= 700 {
		t.Fatal("p90 of a saturated server must exceed the mean")
	}

	// Exact bits of both quantile formulas at the scale the simulator
	// substrate uses (seconds): served percentiles and the goldens are
	// compared byte for byte, so reordering the arithmetic is a change.
	for _, tc := range []struct {
		rp        float64
		saturated bool
		p         float64
		bits      uint64
	}{
		{0.017, false, 0.01, 0x3f2664f75e8e26f2},
		{0.017, false, 0.5, 0x3f8821f2e02adec7},
		{0.017, false, 0.9, 0x3fa40aace4cd7b4c},
		{0.017, false, 0.99, 0x3fb40aace4cd7b49},
		{1.55, false, 0.01, 0x3f8fe75e872d568a},
		{1.55, false, 0.5, 0x3ff130a71f352019},
		{1.55, false, 0.9, 0x400c8d537c8c43e2},
		{1.55, false, 0.99, 0x401c8d537c8c43df},
		{0.017, true, 0.01, 0xbfe90196a0cdf154},
		{0.017, true, 0.5, 0x3f916872b020c49c},
		{0.017, true, 0.9, 0x3fd61c727a3aaaae},
		{0.017, true, 0.99, 0x3fea181dcbcffd9c},
		{1.55, true, 0.01, 0x3fe80cbf634aa221},
		{1.55, true, 0.5, 0x3ff8cccccccccccd},
		{1.55, true, 0.9, 0x3ffe0e47a09af466},
		{1.55, true, 0.99, 0x4002c99cf3fa2444},
	} {
		got := quantile(t, tc.rp, tc.saturated, PaperScaleB/1000, tc.p)
		if math.Float64bits(got) != tc.bits {
			t.Errorf("PercentileFromMean(%v, %v, b, %v) = %v (%#016x), want %v (%#016x)",
				tc.rp, tc.saturated, tc.p, got, math.Float64bits(got), math.Float64frombits(tc.bits), tc.bits)
		}
	}

	// p is a fraction: 90 meant as "90 %", the ends and NaN are errors,
	// not clamped answers.
	for _, saturated := range []bool{false, true} {
		for _, p := range []float64{90, 1, 0, -0.1, math.NaN(), math.Inf(1)} {
			if x, err := PercentileFromMean(0.1, saturated, PaperScaleB/1000, p); err == nil {
				t.Errorf("saturated=%v p=%v: got %v, want an error", saturated, p, x)
			}
		}
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

// Property: the quantile is monotone non-decreasing in p on both
// sides of saturation — equivalently, both CDFs are monotone.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(rp, b, p1, p2 float64, saturated bool) bool {
		rp = 1 + math.Mod(math.Abs(rp), 1000)
		b = 1 + math.Mod(math.Abs(b), 500)
		p1 = 0.001 + 0.998*math.Mod(math.Abs(p1), 1)
		p2 = 0.001 + 0.998*math.Mod(math.Abs(p2), 1)
		if math.IsNaN(p1) || math.IsNaN(p2) {
			return true
		}
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		x1, err1 := PercentileFromMean(rp, saturated, b, p1)
		x2, err2 := PercentileFromMean(rp, saturated, b, p2)
		return err1 == nil && err2 == nil && x1 <= x2
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
