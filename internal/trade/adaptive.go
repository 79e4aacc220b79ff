package trade

import (
	"errors"
	"fmt"

	"perfpred/internal/stats"
)

// RunControl tunes RunAdaptive's batch-means stopping rule. The zero
// value of every field but TargetRelErr selects a default derived from
// the Config.
type RunControl struct {
	// TargetRelErr is the requested relative confidence-interval
	// half-width of the mean response time: the run extends in batches
	// until t·s/(√n·mean) drops under it. Must be positive.
	TargetRelErr float64
	// Confidence is the interval's confidence level (0.90, 0.95 or
	// 0.99; 0 selects 0.95).
	Confidence float64
	// BatchLength is the simulated seconds per batch; 0 selects
	// Config.Duration/10, so the minimum adaptive run equals the fixed
	// horizon.
	BatchLength float64
	// MinBatches is the batch count required before the stopping rule
	// may fire (0 selects 10, a standard batch-means floor).
	MinBatches int
	// MaxDuration caps the total measured window in simulated seconds
	// (0 selects 8×Config.Duration). A run that hits the cap returns
	// with Converged=false rather than an error.
	MaxDuration float64
}

// RunAdaptive simulates the configured measurement under adaptive
// run-length control: after the usual warm-up, the measurement window
// grows one batch at a time and stops as soon as the batch-means
// confidence interval of the mean response time is relatively tighter
// than ctl.TargetRelErr — slightly loaded configurations stop early,
// saturated ones run longer, and every caller states precision instead
// of guessing a horizon. The result's Duration, per-class throughputs
// and stopping diagnostics (Converged, Batches, AchievedRelErr)
// reflect the window actually measured.
//
// The fixed-horizon Run is untouched by this path: RunAdaptive drives
// the same simulator, so a run whose stopping rule fires exactly at
// Config.Duration has made the identical event and draw sequence.
func RunAdaptive(cfg Config, ctl RunControl) (*Result, error) {
	return runAdaptive(cfg, ctl, simOptions{})
}

// runAdaptive is RunAdaptive under the given constructor variant.
func runAdaptive(cfg Config, ctl RunControl, opt simOptions) (*Result, error) {
	if ctl.TargetRelErr <= 0 {
		return nil, errors.New("trade: adaptive run needs a positive target relative error")
	}
	if cfg.sharded() {
		return nil, errors.New("trade: adaptive runs are not supported on sharded configurations")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	conf := ctl.Confidence
	if conf == 0 {
		conf = 0.95
	}
	batch := ctl.BatchLength
	if batch <= 0 {
		batch = cfg.Duration / 10
	}
	minBatches := ctl.MinBatches
	if minBatches <= 0 {
		minBatches = 10
	}
	maxDur := ctl.MaxDuration
	if maxDur <= 0 {
		maxDur = 8 * cfg.Duration
	}
	if min := batch * float64(minBatches); maxDur < min {
		return nil, fmt.Errorf("trade: max duration %v cannot fit %d batches of %v", maxDur, minBatches, batch)
	}

	s := newSimulator(cfg, opt)
	s.eng.Run(cfg.WarmUp, 0)
	s.beginMeasurement()

	var bm stats.BatchMeans
	var prevSum float64
	var prevCnt int
	elapsed := 0.0
	converged := false
	for elapsed < maxDur {
		elapsed += batch
		s.eng.Run(cfg.WarmUp+elapsed, 0)
		sum, cnt := s.measuredTotals()
		if cnt > prevCnt {
			bm.Add((sum - prevSum) / float64(cnt-prevCnt))
		}
		prevSum, prevCnt = sum, cnt
		if bm.Count() >= minBatches && bm.Converged(ctl.TargetRelErr, conf) {
			converged = true
			break
		}
	}
	res := collect([]*simulator{s}, elapsed, s.eng.Fired(), false)
	res.Converged = converged
	res.Batches = bm.Count()
	res.AchievedRelErr = bm.RelHalfWidth(conf)
	recordAdaptive(bm.Count(), converged)
	return res, nil
}
