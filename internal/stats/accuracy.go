package stats

import "math"

// relativeError returns |predicted-actual| / |actual|. When actual is 0
// it returns 0 for an exact prediction and +Inf otherwise, so a
// degenerate measurement cannot silently score as perfect.
func relativeError(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// mape returns the mean absolute percentage error (0..∞, as a
// fraction, not a percentage) across paired prediction/measurement
// series. Pairs whose actual value is 0 are skipped unless the
// prediction is also non-zero, in which case the result is +Inf.
// Empty or fully-skipped input yields 0.
func mape(predicted, actual []float64) float64 {
	n := 0
	var sum float64
	for i := range predicted {
		if i >= len(actual) {
			break
		}
		if actual[i] == 0 && predicted[i] == 0 {
			continue
		}
		sum += relativeError(predicted[i], actual[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Accuracy returns the paper's predictive-accuracy score as a
// percentage: 100 × (1 − mape), floored at 0. A perfect prediction
// scores 100; the paper reports e.g. "89.1% for the established
// servers" on this scale.
func Accuracy(predicted, actual []float64) float64 {
	acc := 100 * (1 - mape(predicted, actual))
	if acc < 0 || math.IsNaN(acc) {
		return 0
	}
	return acc
}
