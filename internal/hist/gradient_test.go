package hist

import (
	"math"
	"testing"

	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// TestGradientPredictionAgainstSimulator checks §4.1's claim on the
// simulated testbed: the gradient transfers across think times via
// m = 1/(Z+R₀), and does not vary with server CPU speed.
func TestGradientPredictionAgainstSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed test")
	}
	opt := trade.MeasureOptions{Seed: 37, WarmUp: 40, Duration: 140}
	measureM := func(arch workload.ServerArch, think float64, clients int) float64 {
		class := workload.ServiceClass{
			Name:          "browse",
			Mix:           workload.Mix{workload.Browse: 1},
			ThinkTimeMean: think,
		}
		res, err := trade.Measure(arch, workload.Workload{{Class: class, Clients: clients}}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput / float64(clients)
	}

	// Calibrate at Z=7 on AppServF, well below saturation.
	m7 := measureM(workload.AppServF(), 7, 500)

	// Predict Z=3.5 and Z=14 by rescaling — m = 1/(Z+R₀) holds the
	// light-load R₀ = 1/m₇ − 7 the calibration implies — then verify by
	// measurement.
	r0 := 1/m7 - 7
	for _, tc := range []struct {
		think   float64
		clients int
	}{
		{3.5, 300}, {14, 900},
	} {
		predicted := 1 / (tc.think + r0)
		measured := measureM(workload.AppServF(), tc.think, tc.clients)
		if math.Abs(predicted-measured)/measured > 0.05 {
			t.Fatalf("Z=%v: predicted m %v vs measured %v", tc.think, predicted, measured)
		}
	}

	// CPU speed invariance: the slow server's gradient matches at the
	// same think time (§4.1: m "does not vary due to different server
	// CPU speeds").
	mSlow := measureM(workload.AppServS(), 7, 250)
	if math.Abs(mSlow-m7)/m7 > 0.05 {
		t.Fatalf("gradient varies across speeds: S %v vs F %v", mSlow, m7)
	}
}
