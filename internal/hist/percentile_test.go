package hist

import (
	"math"
	"testing"

	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// TestDirectPercentileBeatsExtrapolation reproduces the §8.2 claim:
// fitting the percentile directly avoids the accuracy loss of
// extrapolating percentiles from mean predictions through the §7.1
// distributions.
func TestDirectPercentileBeatsExtrapolation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed comparison")
	}
	opt := trade.MeasureOptions{Seed: 41, WarmUp: 40, Duration: 140}
	const m = 0.14
	arch := workload.AppServF()

	// The same chain twice over the same runs: once on the p90 each run
	// recorded (the direct model), once on its mean (extrapolated below
	// with the paper's b).
	var p90s, means []ServerHistory
	for _, a := range []workload.ServerArch{arch, workload.AppServVF()} {
		xMax, err := trade.MaxThroughput(a, 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		n := xMax / m
		p90, mean := ServerHistory{Arch: a, MaxThroughput: xMax}, ServerHistory{Arch: a, MaxThroughput: xMax}
		for _, c := range []int{int(0.25 * n), int(0.55 * n), int(1.2 * n), int(1.6 * n)} {
			res, err := trade.Measure(a, workload.TypicalWorkload(c), opt)
			if err != nil {
				t.Fatal(err)
			}
			p90.Points = append(p90.Points, DataPoint{Clients: float64(c), MeanRT: res.OverallPercentile(90)})
			mean.Points = append(mean.Points, DataPoint{Clients: float64(c), MeanRT: res.MeanRT})
		}
		p90s, means = append(p90s, p90), append(means, mean)
	}
	directSet, _, err := CalibrateSet(m, p90s)
	if err != nil {
		t.Fatal(err)
	}
	meanSet, _, err := CalibrateSet(m, means)
	if err != nil {
		t.Fatal(err)
	}
	direct, meanModel := directSet[arch.Name], meanSet[arch.Name]

	// Fresh evaluation measurements.
	evalOpt := opt
	evalOpt.Seed = 91
	nStar := meanModel.SaturationClients()
	evalCounts := []int{int(0.35 * nStar), int(0.5 * nStar), int(1.3 * nStar), int(1.5 * nStar)}
	var directErr, extrapErr float64
	for _, n := range evalCounts {
		res, err := trade.Measure(arch, workload.TypicalWorkload(n), evalOpt)
		if err != nil {
			t.Fatal(err)
		}
		actual := res.OverallPercentile(90)
		dp := direct.Predict(float64(n))
		ep, err := meanModel.PredictPercentile(float64(n), 0.9, 0.2041)
		if err != nil {
			t.Fatal(err)
		}
		directErr += math.Abs(dp-actual) / actual
		extrapErr += math.Abs(ep-actual) / actual
	}
	// Direct fitting should not lose to extrapolation by more than a
	// whisker (it usually wins since nothing is assumed about the
	// distribution shape).
	if directErr > extrapErr*1.15 {
		t.Fatalf("direct percentile error %v should not exceed extrapolated %v", directErr, extrapErr)
	}
	t.Logf("p90 relative error: direct %.3f vs extrapolated %.3f (4 points)", directErr, extrapErr)
}
