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

// PercentileFromMean converts a mean response-time prediction rp into
// a percentile prediction: the response time below which fraction p
// (0 < p < 1) of requests is predicted to fall. It is the operation
// §7.1 applies to every point of figure 2 with p = 0.90. saturated
// should be true when the predicted load is at or past the server's
// max-throughput load (≈100% CPU utilisation). Below saturation the
// quantile is the exponential's of equation (6),
//
//	x = −rp ln(1 − p),
//
// and at or above it the quantile of equation (7)'s Laplace located at
// rp with scale b > 0:
//
//	x = rp + b ln(2p)          for p < ½
//	x = rp − b ln(2(1 − p))    for p ≥ ½
func PercentileFromMean(rp float64, saturated bool, b, p float64) (float64, error) {
	if rp <= 0 {
		return 0, errors.New("rtdist: mean response time must be positive")
	}
	if saturated && b <= 0 {
		return 0, fmt.Errorf("rtdist: scale b must be positive, got %g", b)
	}
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("rtdist: percentile %v outside (0,1)", p)
	}
	// Keep p a little off 0 and 1, where the logarithms diverge.
	const eps = 1e-12
	p = min(max(p, eps), 1-eps)
	if !saturated {
		return -rp * math.Log(1-p), nil
	}
	if p < 0.5 {
		return rp + b*math.Log(2*p), nil
	}
	return rp - b*math.Log(2*(1-p)), nil
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
