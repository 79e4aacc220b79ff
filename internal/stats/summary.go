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

// MeanCI returns the sample mean and the half-width of its normal
// confidence interval at the given confidence level (0.90, 0.95 or
// 0.99; other levels fall back to 0.95). With fewer than two samples
// the half-width is 0. Experiments use it to report accuracy spread
// across replicated seeds.
func (a *Accumulator) MeanCI(level float64) (mean, halfWidth float64) {
	mean = a.Mean()
	if a.n < 2 {
		return mean, 0
	}
	var z float64
	switch level {
	case 0.90:
		z = 1.645
	case 0.99:
		z = 2.576
	default:
		z = 1.960
	}
	return mean, z * a.StdDev() / math.Sqrt(float64(a.n))
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
