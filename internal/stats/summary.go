package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Accumulator collects samples online using Welford's algorithm, so a
// simulation run can stream millions of response-time samples without
// retaining them. The zero value is ready to use.
type Accumulator struct {
	n        int
	mean     float64
	m2       float64
	min, max float64
	sum      float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.sum += x
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Count returns the number of samples recorded.
func (a *Accumulator) Count() int { return a.n }

// Sum returns the total of all samples.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the sample mean, or 0 when no samples have been added.
func (a *Accumulator) Mean() float64 { return a.mean }

// variance returns the unbiased sample variance, or 0 with fewer than
// two samples.
func (a *Accumulator) variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.variance()) }

// Min returns the smallest sample, or 0 when empty.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample, or 0 when empty.
func (a *Accumulator) Max() float64 { return a.max }

// Merge folds the samples of b into a, as if every sample added to b
// had been added to a. It lets per-worker accumulators be combined
// after a parallel simulation run.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	d := b.mean - a.mean
	mean := a.mean + d*float64(b.n)/float64(n)
	a.m2 += b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	a.mean = mean
	a.sum += b.sum
	a.n = n
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

// MeanCI returns the sample mean and the half-width of its Student-t
// confidence interval at the given confidence level (0.90, 0.95 or
// 0.99; other levels fall back to 0.95). Past 31 samples the quantile
// is the normal one. With fewer than two samples the half-width is 0.
// Experiments use it to report accuracy spread across replicated seeds.
func (a *Accumulator) MeanCI(level float64) (mean, halfWidth float64) {
	mean = a.Mean()
	if a.n < 2 {
		return mean, 0
	}
	return mean, tQuantile(level, a.n-1) * a.StdDev() / math.Sqrt(float64(a.n))
}

// tTable95 holds two-sided Student-t quantiles t_{0.975,df} for
// df = 1..30; larger dfs use the normal approximation.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

var tTable90 = [...]float64{
	6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
	1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
	1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
}

var tTable99 = [...]float64{
	63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
	3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
	2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
}

// tQuantile returns the two-sided Student-t critical value for the
// given confidence level and degrees of freedom. Levels other than
// 0.90, 0.95 and 0.99 fall back to 0.95.
func tQuantile(level float64, df int) float64 {
	if df < 1 {
		df = 1
	}
	var table []float64
	var z float64
	switch level {
	case 0.90:
		table, z = tTable90[:], 1.645
	case 0.99:
		table, z = tTable99[:], 2.576
	default:
		table, z = tTable95[:], 1.960
	}
	if df <= len(table) {
		return table[df-1]
	}
	return z
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 < p <= 100) of xs using
// linear interpolation between order statistics. It selects the two
// order statistics it needs on a copy instead of sorting everything,
// leaving xs unmodified; for NaN-free input the value is the one a full
// sort gives, bit for bit. An empty slice yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p <= 0 {
		return slices.Min(xs)
	}
	if p >= 100 {
		return slices.Max(xs)
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	s := make([]float64, len(xs))
	copy(s, xs)
	selectKth(s, lo)
	if lo == hi {
		return s[lo]
	}
	// Everything after s[lo] is at least as large, so the next order
	// statistic is the smallest of it.
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + slices.Min(s[lo+1:])*frac
}

// selectKth reorders s so that s[k] is the element a full sort would
// put there, with nothing larger before it and nothing smaller after
// it (Hoare's quickselect on a median-of-three pivot). A range that
// pathological pivots fail to shrink within the usual budget of
// iterations is sorted outright, which bounds the worst case.
func selectKth(s []float64, k int) {
	lo, hi := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(s[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] <= pivot <= s[i..hi] and j < i.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return // j < k < i: s[k] is the pivot value
		}
	}
}
