package bench

import (
	"fmt"

	"perfpred/internal/hist"
	"perfpred/internal/stats"
	"perfpred/internal/workload"
)

// DataQuantity reproduces the §4.2 claim that "accurate predictions
// can be made even when nudp and nldp are both reduced to 2 and ns is
// reduced to 50": it calibrates the established servers with varying
// numbers of data points per equation and varying samples per data
// point, then scores the relationship-2 prediction of the new server.
func (s *Suite) DataQuantity() (*Table, error) {
	t := &Table{
		ID:     "Section 4.2 (data quantity)",
		Title:  "New-server accuracy vs quantity of historical data",
		Header: []string{"Points/equation", "Samples/point (ns)", "New-server accuracy (%)"},
	}
	gradient, err := s.Gradient()
	if err != nil {
		return nil, err
	}
	// Evaluation set on the new server: fresh populations measured in
	// full.
	sArch := workload.AppServS()
	sMax, err := s.MaxThroughput(sArch)
	if err != nil {
		return nil, err
	}
	sStar := sMax / gradient
	var evalPts []hist.DataPoint
	for _, frac := range []float64{0.3, 0.5, 1.3, 1.6} {
		res, err := measureCached(s, sArch, int(frac*sStar), 0)
		if err != nil {
			return nil, err
		}
		evalPts = append(evalPts, hist.DataPoint{Clients: frac * sStar, MeanRT: res.MeanRT})
	}

	for _, perEq := range []int{2, 3, 4} {
		for _, ns := range []int{25, 50, 200, 0} { // 0 = all samples
			nsLabel := "all"
			if ns > 0 {
				nsLabel = itoa(ns)
			}
			sModel, fitErr, err := s.quantityModel(gradient, sArch, sMax, perEq, ns)
			if err != nil {
				return nil, err
			}
			if fitErr != nil {
				// What too little data does is the experiment's subject: a
				// fit it breaks is a result, not a reason to stop.
				t.AddRow(itoa(perEq), nsLabel, "fit failed")
				t.AddNote("%d points/equation, ns=%s: %v", perEq, nsLabel, fitErr)
				continue
			}
			t.AddRow(itoa(perEq), nsLabel, f1(hist.EvaluateAccuracy(sModel, evalPts)))
		}
	}
	t.AddNote("paper: accuracy holds with nldp=nudp=2 and ns=50; recording 50 samples took at most 4.5s below and 2.2min above max throughput")
	return t, nil
}

// quantityModel builds the new server's relationship-2 model from
// established-server calibrations that use perEq data points per
// equation and ns samples per point. A calibration or fit that the
// reduced data cannot support comes back as fitErr; err is a failed
// measurement.
func (s *Suite) quantityModel(gradient float64, sArch workload.ServerArch, sMax float64, perEq, ns int) (sModel *hist.ServerModel, fitErr, err error) {
	var est []*hist.ServerModel
	for _, arch := range []workload.ServerArch{workload.AppServF(), workload.AppServVF()} {
		xMax, err := s.MaxThroughput(arch)
		if err != nil {
			return nil, nil, err
		}
		nStar := xMax / gradient
		var pts []hist.DataPoint
		fracs := append(spreadFracs(0.20, 0.60, perEq), spreadFracs(1.15, 1.65, perEq)...)
		for _, frac := range fracs {
			n := int(frac * nStar)
			res, err := measureCached(s, arch, n, 0)
			if err != nil {
				return nil, nil, err
			}
			pts = append(pts, hist.DataPoint{
				Clients: float64(n),
				MeanRT:  truncatedMean(res.PerClass["browse"].Samples, ns),
				Samples: ns,
			})
		}
		m, err := hist.CalibrateServer(arch, xMax, gradient, pts)
		if err != nil {
			return nil, fmt.Errorf("calibration of %s: %w", arch.Name, err), nil
		}
		est = append(est, m)
	}
	rel2, err := hist.FitRelationship2(est)
	if err != nil {
		return nil, err, nil
	}
	sModel, err = rel2.NewServerModel(sArch, sMax)
	if err != nil {
		return nil, err, nil
	}
	return sModel, nil, nil
}

// truncatedMean emulates recording only ns response-time samples (the
// paper's ns), falling back to all samples when ns is 0 or exceeds
// what was recorded. Samples are taken at an even stride through the
// window rather than as the first ns completions: the earliest
// completions after a statistics reset over-represent requests that
// were already in flight (longer than average by the inspection
// paradox), a bias the paper's live measurements do not suffer because
// its benchmarking clients sample while stationary.
func truncatedMean(samples []float64, ns int) float64 {
	if ns <= 0 || ns >= len(samples) {
		return stats.Mean(samples)
	}
	stride := len(samples) / ns
	var sum float64
	for i := 0; i < ns; i++ {
		sum += samples[i*stride]
	}
	return sum / float64(ns)
}

func spreadFracs(lo, hi float64, count int) []float64 {
	if count == 1 {
		return []float64{(lo + hi) / 2}
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(count-1)
	}
	return out
}
