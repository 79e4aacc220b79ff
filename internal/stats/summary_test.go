package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Count() != 0 || a.Mean() != 0 || a.variance() != 0 {
		t.Fatal("zero accumulator should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	near(t, a.Mean(), 5, 1e-12, "mean")
	near(t, a.Sum(), 40, 1e-12, "sum")
	near(t, a.variance(), 32.0/7.0, 1e-12, "variance")
	near(t, a.Min(), 2, 0, "min")
	near(t, a.Max(), 9, 0, "max")
	if a.Count() != 8 {
		t.Fatalf("count = %d, want 8", a.Count())
	}
}

func TestAccumulatorSingleSample(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	near(t, a.Mean(), 3.5, 0, "mean")
	near(t, a.variance(), 0, 0, "variance of one sample")
	near(t, a.Min(), 3.5, 0, "min")
	near(t, a.Max(), 3.5, 0, "max")
}

func TestAccumulatorMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var all, left, right Accumulator
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		all.Add(x)
		if i%2 == 0 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	near(t, left.Mean(), all.Mean(), 1e-9, "merged mean")
	near(t, left.variance(), all.variance(), 1e-9, "merged variance")
	near(t, left.Min(), all.Min(), 0, "merged min")
	near(t, left.Max(), all.Max(), 0, "merged max")
	if left.Count() != all.Count() {
		t.Fatalf("merged count = %d, want %d", left.Count(), all.Count())
	}
}

func TestAccumulatorMergeEmpty(t *testing.T) {
	var a, b Accumulator
	a.Add(1)
	a.Merge(&b) // merging empty is a no-op
	if a.Count() != 1 {
		t.Fatalf("count = %d, want 1", a.Count())
	}
	b.Merge(&a) // merging into empty copies
	if b.Count() != 1 || b.Mean() != 1 {
		t.Fatalf("merge into empty: count=%d mean=%v", b.Count(), b.Mean())
	}
}

func TestMeanAndPercentile(t *testing.T) {
	near(t, Mean(nil), 0, 0, "mean of empty")
	near(t, Mean([]float64{1, 2, 3}), 2, 1e-12, "mean")

	xs := []float64{15, 20, 35, 40, 50}
	near(t, Percentile(xs, 0), 15, 0, "p0")
	near(t, Percentile(xs, 100), 50, 0, "p100")
	near(t, Percentile(xs, 50), 35, 1e-12, "median")
	near(t, Percentile(xs, 25), 20, 1e-12, "p25")
	// Input must stay unsorted/unmodified.
	shuffled := []float64{40, 15, 50, 20, 35}
	_ = Percentile(shuffled, 90)
	if shuffled[0] != 40 {
		t.Fatal("Percentile modified its input")
	}
	near(t, Percentile(nil, 50), 0, 0, "empty percentile")
}

func TestAccuracyMetric(t *testing.T) {
	near(t, Accuracy([]float64{100}, []float64{100}), 100, 1e-12, "perfect")
	near(t, Accuracy([]float64{90}, []float64{100}), 90, 1e-12, "10% off")
	near(t, Accuracy([]float64{110}, []float64{100}), 90, 1e-12, "overprediction symmetric")
	// Gross mispredictions floor at zero rather than going negative.
	near(t, Accuracy([]float64{1000}, []float64{100}), 0, 0, "floor at 0")
	// Zero-actual handling.
	if !math.IsInf(relativeError(1, 0), 1) {
		t.Fatal("relativeError(1,0) should be +Inf")
	}
	near(t, relativeError(0, 0), 0, 0, "exact zero prediction")
	near(t, mape(nil, nil), 0, 0, "empty mape")
	near(t, mape([]float64{0, 50}, []float64{0, 100}), 0.5, 1e-12, "zero pairs skipped")
}

// Property: the streaming accumulator matches a direct two-pass
// computation for arbitrary sample sets.
func TestAccumulatorMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) < 2 {
			return true
		}
		var a Accumulator
		for _, x := range xs {
			a.Add(x)
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(xs)-1)
		tol := 1e-6 * (1 + math.Abs(mean) + variance)
		return math.Abs(a.Mean()-mean) < tol && math.Abs(a.variance()-variance) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, hi := Percentile(xs, p1), Percentile(xs, p2)
		return lo <= hi && lo >= Percentile(xs, 0) && hi <= Percentile(xs, 100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// percentileBySort is the definition Percentile used to implement
// directly: sort a copy, interpolate between the two order statistics.
func percentileBySort(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Property: selecting the two order statistics gives the sort-based
// value bit for bit and leaves the input alone — across sizes from 1
// up, heavy duplication, already-ordered and organ-pipe inputs (which
// drive naive pivots quadratic), p at and beyond both ends, and ranks
// that land on an element as well as between two.
func TestPercentileMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(label string, xs []float64, p float64) {
		t.Helper()
		before := append([]float64(nil), xs...)
		got, want := Percentile(xs, p), percentileBySort(xs, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s, n=%d, p=%v: selected %v, sorted %v", label, len(xs), p, got, want)
		}
		if !slices.Equal(xs, before) {
			t.Fatalf("%s, n=%d, p=%v: input modified", label, len(xs), p)
		}
	}
	shapes := []struct {
		label string
		gen   func(n int) []float64
	}{
		{"exponential", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.ExpFloat64()
			}
			return xs
		}},
		{"few distinct values", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(3))
			}
			return xs
		}},
		{"all equal", func(n int) []float64 { return make([]float64, n) }},
		{"ascending", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		}},
		{"descending", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		}},
		{"organ pipe", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(min(i, n-1-i))
			}
			return xs
		}},
	}
	for _, shape := range shapes {
		label := shape.label
		for _, n := range []int{1, 2, 3, 4, 5, 11, 100, 101, 1000, 4097} {
			xs := shape.gen(n)
			for _, p := range []float64{-5, 0, 1e-9, 10, 25, 50, 90, 99, 99.999, 100, 250} {
				check(label, xs, p)
			}
			for i := 0; i < 20; i++ {
				check(label, xs, 100*rng.Float64())
			}
			// p chosen so the rank is exactly an element's index.
			for _, k := range []int{0, (n - 1) / 2, n - 1} {
				if n > 1 {
					check(label, xs, 100*float64(k)/float64(n-1))
				}
			}
		}
	}
}

func TestMeanCI(t *testing.T) {
	var a Accumulator
	a.Add(5)
	if _, hw := a.MeanCI(0.95); hw != 0 {
		t.Fatalf("single-sample half-width = %v, want 0", hw)
	}
	// Five replications {3,1,2,4,5}: mean 3, sample sd √2.5, and the
	// Student-t quantile for 4 degrees of freedom, not the normal 1.96.
	a = Accumulator{}
	for _, x := range []float64{3, 1, 2, 4, 5} {
		a.Add(x)
	}
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if mean, hw := a.MeanCI(0.95); mean != 3 || math.Abs(hw-want) > 1e-9 {
		t.Fatalf("n=5: mean ± half-width = %v ± %v, want 3 ± %v", mean, hw, want)
	}
	rng := rand.New(rand.NewSource(8))
	a = Accumulator{}
	for i := 0; i < 400; i++ {
		a.Add(rng.NormFloat64()*2 + 10)
	}
	mean95, hw95 := a.MeanCI(0.95)
	_, hw90 := a.MeanCI(0.90)
	_, hw99 := a.MeanCI(0.99)
	if math.Abs(mean95-10) > 0.5 {
		t.Fatalf("mean = %v", mean95)
	}
	// Expected half-width ≈ 1.96×2/20 ≈ 0.196.
	if hw95 < 0.1 || hw95 > 0.3 {
		t.Fatalf("95%% half-width = %v", hw95)
	}
	if !(hw90 < hw95 && hw95 < hw99) {
		t.Fatalf("half-widths not ordered: %v %v %v", hw90, hw95, hw99)
	}
	// Unknown levels fall back to 95%.
	if _, hw := a.MeanCI(0.5); hw != hw95 {
		t.Fatalf("fallback half-width = %v, want %v", hw, hw95)
	}
}

func TestTQuantile(t *testing.T) {
	cases := []struct {
		level float64
		df    int
		want  float64
	}{
		{0.95, 1, 12.706},
		{0.95, 30, 2.042},
		{0.95, 1000, 1.960}, // beyond the table: normal approximation
		{0.90, 5, 2.015},
		{0.99, 10, 3.169},
		{0.80, 5, 2.571},  // unknown level falls back to 0.95
		{0.95, 0, 12.706}, // df floor
	}
	for _, c := range cases {
		if got := tQuantile(c.level, c.df); got != c.want {
			t.Errorf("tQuantile(%v, %d) = %v, want %v", c.level, c.df, got, c.want)
		}
	}
}
