package bench

import (
	"perfpred/internal/hist"
	"perfpred/internal/hybrid"
	"perfpred/internal/stats"
	"perfpred/internal/workload"
)

// dataQuantity reproduces the §4.2 claim that "accurate predictions
// can be made even when nudp and nldp are both reduced to 2 and ns is
// reduced to 50": it calibrates the established servers with varying
// numbers of data points per equation and varying samples per data
// point, then scores the relationship-2 prediction of the new server.
func (s *Suite) dataQuantity() (*Table, error) {
	t := &Table{
		ID:     "Section 4.2 (data quantity)",
		Title:  "New-server accuracy vs quantity of historical data",
		Header: []string{"Points/equation", "Samples/point (ns)", "New-server accuracy (%)"},
	}
	gradient, err := s.gradient()
	if err != nil {
		return nil, err
	}
	sArch := workload.AppServS()
	sMax, err := s.maxThroughput(sArch)
	if err != nil {
		return nil, err
	}
	established := []workload.ServerArch{workload.AppServF(), workload.AppServVF()}
	xMaxes := make([]float64, len(established))
	for i, arch := range established {
		if xMaxes[i], err = s.maxThroughput(arch); err != nil {
			return nil, err
		}
	}
	// One fan-out: the evaluation set on the new server (fresh
	// populations, measured in full), then per points-per-equation
	// setting the 2·perEq calibration points of each established server.
	sStar := sMax / gradient
	evalFracs := []float64{0.3, 0.5, 1.3, 1.6}
	cells := cellsAt(sArch, sStar, evalFracs)
	perEqs := []int{2, 3, 4}
	first := make([]int, len(perEqs)) // each setting's first calibration cell
	for pi, perEq := range perEqs {
		first[pi] = len(cells)
		fracs := append(hybrid.Spread(0.20, 0.60, perEq), hybrid.Spread(1.15, 1.65, perEq)...)
		for i, arch := range established {
			cells = append(cells, cellsAt(arch, xMaxes[i]/gradient, fracs)...)
		}
	}
	results, err := measureCells(s, cells)
	if err != nil {
		return nil, err
	}
	evalPts := make([]hist.DataPoint, len(evalFracs))
	for k, frac := range evalFracs {
		evalPts[k] = hist.DataPoint{Clients: frac * sStar, MeanRT: results[k].MeanRT}
	}

	// quantityModel builds the new server's relationship-2 model from
	// the established servers' calibration cells, which start at cell lo,
	// keeping ns samples per point. Its error is a calibration or fit
	// the reduced data cannot support.
	quantityModel := func(lo, perEq, ns int) (*hist.ServerModel, error) {
		histories := []hist.ServerHistory{{Arch: sArch, MaxThroughput: sMax}}
		for i, arch := range established {
			pts := make([]hist.DataPoint, 2*perEq)
			for j := range pts {
				k := lo + i*len(pts) + j
				pts[j] = hist.DataPoint{
					Clients: float64(cells[k].clients),
					MeanRT:  truncatedMean(results[k].PerClass["browse"].Samples, ns),
					Samples: ns,
				}
			}
			histories = append(histories, hist.ServerHistory{Arch: arch, MaxThroughput: xMaxes[i], Points: pts})
		}
		set, _, err := hist.CalibrateSet(gradient, histories)
		return set[sArch.Name], err
	}
	for pi, perEq := range perEqs {
		for _, ns := range []int{25, 50, 200, 0} { // 0 = all samples
			nsLabel := label("all")
			if ns > 0 {
				nsLabel = itoa(ns)
			}
			sModel, fitErr := quantityModel(first[pi], perEq, ns)
			if fitErr != nil {
				// What too little data does is the experiment's subject: a
				// fit it breaks is a result, not a reason to stop.
				t.addRow(itoa(perEq), nsLabel, label("fit failed"))
				t.addNote("%d points/equation, ns=%s: %v", perEq, nsLabel.Text, fitErr)
				continue
			}
			t.addRow(itoa(perEq), nsLabel, f1(hist.EvaluateAccuracy(sModel, evalPts)))
		}
	}
	t.addNote("paper: accuracy holds with nldp=nudp=2 and ns=50; recording 50 samples took at most 4.5s below and 2.2min above max throughput")
	return t, nil
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
