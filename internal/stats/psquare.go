package stats

import (
	"math"
	"sort"
)

// P2Quantile is the Jain & Chlamtac P² streaming quantile estimator:
// it tracks one quantile of an unbounded stream with five markers and
// O(1) memory, adjusting marker heights with a piecewise-parabolic
// interpolation. A simulated measurement run can stream millions of
// response times through it instead of retaining a sample buffer.
// The zero value is not usable; construct with NewP2Quantile.
type P2Quantile struct {
	p   float64
	n   int        // observations seen
	q   [5]float64 // marker heights
	pos [5]float64 // marker positions (1-based)
	des [5]float64 // desired marker positions
	inc [5]float64 // desired-position increments per observation
}

// NewP2Quantile returns an estimator for the p-th quantile, p in (0,1).
func NewP2Quantile(p float64) *P2Quantile {
	if !(p > 0 && p < 1) {
		panic("stats: P² quantile must be in (0,1)")
	}
	e := &P2Quantile{p: p}
	e.des = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	e.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// P returns the tracked quantile probability.
func (e *P2Quantile) P() float64 { return e.p }

// Count returns the number of observations seen.
func (e *P2Quantile) Count() int { return e.n }

// Add records one observation.
func (e *P2Quantile) Add(x float64) {
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
			}
		}
		return
	}
	// Find the cell k such that q[k] <= x < q[k+1], updating the
	// extreme markers as needed.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		k = 3
		for i := 1; i < 4; i++ {
			if x < e.q[i] {
				k = i - 1
				break
			}
		}
	}
	e.n++
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.des {
		e.des[i] += e.inc[i]
	}
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.des[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by d (±1).
func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback height prediction when the parabola would
// leave the markers unordered.
func (e *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it falls back to the exact quantile of what was seen;
// with none it returns 0.
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		buf := make([]float64, e.n)
		copy(buf, e.q[:e.n])
		sort.Float64s(buf)
		return Percentile(buf, e.p*100)
	}
	return e.q[2]
}

// Min and Max return the smallest and largest observations seen.
func (e *P2Quantile) Min() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		m := e.q[0]
		for _, v := range e.q[1:e.n] {
			m = math.Min(m, v)
		}
		return m
	}
	return e.q[0]
}

// Max returns the largest observation seen.
func (e *P2Quantile) Max() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		m := e.q[0]
		for _, v := range e.q[1:e.n] {
			m = math.Max(m, v)
		}
		return m
	}
	return e.q[4]
}
