package hist

import (
	"errors"
	"fmt"
	"sort"

	"perfpred/internal/stats"
	"perfpred/internal/workload"
)

// ThroughputPoint is one (clients, throughput) observation below max
// throughput, used to calibrate the gradient m.
type ThroughputPoint struct {
	Clients    float64
	Throughput float64
}

// CalibrateGradient fits the through-origin clients→throughput
// gradient m from observations below saturation (§4.1). The value
// depends on the think time and is shared across architectures.
func CalibrateGradient(points []ThroughputPoint) (float64, error) {
	if len(points) == 0 {
		return 0, errors.New("hist: no throughput points")
	}
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i] = p.Clients
		ys[i] = p.Throughput
	}
	if len(points) == 1 {
		if xs[0] <= 0 {
			return 0, errors.New("hist: throughput point needs positive clients")
		}
		return ys[0] / xs[0], nil
	}
	m, err := stats.FitProportional(xs, ys)
	if err != nil {
		return 0, err
	}
	if m <= 0 {
		return 0, fmt.Errorf("hist: non-positive gradient %v", m)
	}
	return m, nil
}

// CalibrateServer fits relationship 1 for one server from historical
// data points. The lower exponential equation is fitted (least
// squares on the log) to points at or below 66% of the max-throughput
// load and the upper linear equation to points at or above 110%; the
// paper shows nldp = nudp = 2 points suffice. maxThroughput is the
// server's benchmarked max throughput and m the shared gradient.
func CalibrateServer(arch workload.ServerArch, maxThroughput, m float64, points []DataPoint) (*ServerModel, error) {
	if maxThroughput <= 0 {
		return nil, errors.New("hist: max throughput must be positive")
	}
	if m <= 0 {
		return nil, errors.New("hist: gradient must be positive")
	}
	nStar := maxThroughput / m
	var lower, upper []DataPoint
	for _, p := range points {
		if p.Clients <= 0 || p.MeanRT <= 0 {
			return nil, fmt.Errorf("hist: invalid data point (%v clients, %v s)", p.Clients, p.MeanRT)
		}
		switch {
		case p.Clients <= TransitionLow*nStar:
			lower = append(lower, p)
		case p.Clients >= TransitionHigh*nStar:
			upper = append(upper, p)
		}
		// Points inside the transition band calibrate neither equation.
	}
	if len(lower) < 2 {
		return nil, fmt.Errorf("hist: need at least 2 lower data points (below %.0f clients), have %d", TransitionLow*nStar, len(lower))
	}
	if len(upper) < 2 {
		return nil, fmt.Errorf("hist: need at least 2 upper data points (above %.0f clients), have %d", TransitionHigh*nStar, len(upper))
	}

	expFit, err := stats.FitExponential(split(lower))
	if err != nil {
		return nil, fmt.Errorf("hist: lower equation fit: %w", err)
	}
	linFit, err := stats.FitLinear(split(upper))
	if err != nil {
		return nil, fmt.Errorf("hist: upper equation fit: %w", err)
	}
	model := &ServerModel{
		Arch:          arch,
		MaxThroughput: maxThroughput,
		CL:            expFit.Coeff,
		LambdaL:       expFit.Rate,
		LambdaU:       linFit.Slope,
		CU:            linFit.Intercept,
		M:             m,
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return model, nil
}

func split(points []DataPoint) (xs, ys []float64) {
	sorted := make([]DataPoint, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Clients < sorted[j].Clients })
	xs = make([]float64, len(sorted))
	ys = make([]float64, len(sorted))
	for i, p := range sorted {
		xs[i] = p.Clients
		ys[i] = p.MeanRT
	}
	return xs, ys
}

// EvaluateAccuracy scores the model against measured data points with
// the paper's accuracy metric (100% − mean relative error). It is the
// HYDRA facility for "testing the accuracy of relationships on
// variable quantities of historical data".
func EvaluateAccuracy(m *ServerModel, measured []DataPoint) float64 {
	pred := make([]float64, len(measured))
	act := make([]float64, len(measured))
	for i, p := range measured {
		pred[i] = m.Predict(p.Clients)
		act[i] = p.MeanRT
	}
	return stats.Accuracy(pred, act)
}

// EvaluateEquationAccuracy scores the lower and upper equations
// separately — the paper's per-equation accuracies of figure 3 — and
// returns their mean as the overall accuracy ("the overall predictive
// accuracy is defined as the mean of the lower equation accuracy and
// the upper equation accuracy").
func EvaluateEquationAccuracy(m *ServerModel, measured []DataPoint) (lower, upper, overall float64) {
	nStar := m.SaturationClients()
	var lp, la, up, ua []float64
	for _, p := range measured {
		pred := m.Predict(p.Clients)
		if p.Clients < nStar {
			lp = append(lp, pred)
			la = append(la, p.MeanRT)
		} else {
			up = append(up, pred)
			ua = append(ua, p.MeanRT)
		}
	}
	lower = stats.Accuracy(lp, la)
	upper = stats.Accuracy(up, ua)
	switch {
	case len(la) == 0:
		return 0, upper, upper
	case len(ua) == 0:
		return lower, 0, lower
	default:
		return lower, upper, (lower + upper) / 2
	}
}
