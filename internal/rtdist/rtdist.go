// Package rtdist implements the response-time distribution extension
// of the paper's §7.1. SLAs are frequently specified as percentile
// goals ("p% of requests under rmax") rather than mean goals, yet the
// layered queuing and hybrid methods predict only mean response times.
// The paper's fix is empirical: relative to the predicted mean, the
// request response-time distribution has a fixed shape on either side
// of server saturation —
//
//   - before 100% CPU utilisation the dominant delay is service itself,
//     and response times follow an exponential distribution whose mean
//     is the predicted mean response time rp (equation 6);
//   - after saturation the dominant delay is application-server queuing
//     and response times follow a double-exponential (Laplace)
//     distribution located at rp with a scale parameter b that is
//     constant across architectures with heterogeneous processing
//     speeds (equation 7; b calibrates to 204.1 ms in the paper's
//     testbed).
//
// Given any mean response-time prediction, these distributions convert
// it into percentile predictions, losing at most a few percent of
// accuracy (§7.1 reports a worst case of 4.6%).
package rtdist

import (
	"errors"
	"fmt"
	"math"
)

// PaperScaleB is the Laplace scale parameter the paper calibrates on
// its testbed (milliseconds). Users of this repository's simulator
// substrate should calibrate their own value with CalibrateScale; the
// constant is exported so the paper's configuration can be reproduced
// exactly.
const PaperScaleB = 204.1

var errNonPositiveMean = errors.New("rtdist: mean response time must be positive")

// Distribution predicts response-time quantiles from a mean
// response-time prediction.
type Distribution interface {
	// CDF returns P(X <= x) for response time x.
	CDF(x float64) float64
	// Quantile returns the response time below which a fraction p
	// (0 < p < 1) of requests fall.
	Quantile(p float64) float64
	// Mean returns the distribution's mean response time.
	Mean() float64
}

// Exponential is the pre-saturation response-time distribution of
// equation (6): P(X<=x) = 1 - e^(-x/rp), with rp the predicted mean
// response time.
type Exponential struct {
	rp float64
}

// NewExponential returns the pre-saturation distribution for a
// predicted mean response time rp > 0.
func NewExponential(rp float64) (Exponential, error) {
	if rp <= 0 {
		return Exponential{}, errNonPositiveMean
	}
	return Exponential{rp: rp}, nil
}

// Mean returns rp.
func (d Exponential) Mean() float64 { return d.rp }

// CDF returns P(X <= x). Negative response times have probability 0.
func (d Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-x/d.rp)
}

// Quantile returns the response time at percentile p (as a fraction in
// (0,1)). Out-of-range p values are clamped to the open interval.
func (d Exponential) Quantile(p float64) float64 {
	p = clampOpen(p)
	return -d.rp * math.Log(1-p)
}

// Laplace is the post-saturation response-time distribution of
// equation (7): a double-exponential located at the predicted mean
// response time rp (a = rp) with scale b:
//
//	P(X<=x) = ½ e^((x-a)/b)        for x < a
//	P(X<=x) = 1 − ½ e^(−(x-a)/b)   for x >= a
type Laplace struct {
	a float64 // location = predicted mean response time
	b float64 // scale, constant across architectures in the case study
}

// NewLaplace returns the post-saturation distribution located at the
// predicted mean response time rp with scale b; both must be positive.
func NewLaplace(rp, b float64) (Laplace, error) {
	if rp <= 0 {
		return Laplace{}, errNonPositiveMean
	}
	if b <= 0 {
		return Laplace{}, fmt.Errorf("rtdist: scale b must be positive, got %g", b)
	}
	return Laplace{a: rp, b: b}, nil
}

// Mean returns the location parameter a (= rp); the Laplace
// distribution is symmetric so location and mean coincide.
func (d Laplace) Mean() float64 { return d.a }

// Scale returns the scale parameter b.
func (d Laplace) Scale() float64 { return d.b }

// CDF returns P(X <= x).
func (d Laplace) CDF(x float64) float64 {
	if x < d.a {
		return 0.5 * math.Exp((x-d.a)/d.b)
	}
	return 1 - 0.5*math.Exp(-(x-d.a)/d.b)
}

// Quantile returns the response time at percentile p (a fraction in
// (0,1)). Out-of-range p values are clamped to the open interval.
func (d Laplace) Quantile(p float64) float64 {
	p = clampOpen(p)
	if p < 0.5 {
		return d.a + d.b*math.Log(2*p)
	}
	return d.a - d.b*math.Log(2*(1-p))
}

// ForMeanPrediction selects the §7.1 distribution for a predicted mean
// response time rp: exponential when the server is below saturation
// and Laplace(rp, b) at or above saturation. saturated should be true
// when the predicted load is at or past the server's max-throughput
// load (≈100% CPU utilisation).
func ForMeanPrediction(rp float64, saturated bool, b float64) (Distribution, error) {
	if saturated {
		return NewLaplace(rp, b)
	}
	return NewExponential(rp)
}

// PercentileFromMean converts a mean response-time prediction into a
// percentile prediction: the response time below which fraction p of
// requests is predicted to fall. It is the operation §7.1 applies to
// every point of figure 2 with p = 0.90.
func PercentileFromMean(rp float64, saturated bool, b, p float64) (float64, error) {
	d, err := ForMeanPrediction(rp, saturated, b)
	if err != nil {
		return 0, err
	}
	return d.Quantile(p), nil
}

// CalibrateScale estimates the Laplace scale parameter b from measured
// post-saturation response-time samples and their mean, by maximum
// likelihood for a Laplace distribution with known location: the mean
// absolute deviation around the location. The paper observes the
// resulting b is constant across server architectures. The samples may
// come as several slices (one per service class, say); deviations are
// summed slice by slice in the order given, so the result is the one
// the concatenated slice would give, bit for bit.
func CalibrateScale(location float64, samples ...[]float64) (float64, error) {
	var sum float64
	n := 0
	for _, group := range samples {
		for _, s := range group {
			sum += math.Abs(s - location)
		}
		n += len(group)
	}
	if n == 0 {
		return 0, errors.New("rtdist: no samples to calibrate scale from")
	}
	b := sum / float64(n)
	if b <= 0 {
		return 0, errors.New("rtdist: degenerate samples, scale would be non-positive")
	}
	return b, nil
}

func clampOpen(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}
