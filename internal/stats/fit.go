package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrInsufficientData is returned by the fitting routines when fewer
// than two distinct data points are supplied.
var ErrInsufficientData = errors.New("stats: need at least two distinct data points")

// ErrNonPositive is returned by the log-transform fits (exponential and
// power-law) when a coordinate that must be strictly positive is not.
var ErrNonPositive = errors.New("stats: log-transform fit requires strictly positive values")

// LinearModel is a least-squares trend line y = Slope*x + Intercept.
type LinearModel struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit on the
	// calibration data (1 is a perfect fit).
	R2 float64
}

// Eval returns the model's estimate of y at x.
func (m LinearModel) Eval(x float64) float64 { return m.Slope*x + m.Intercept }

// FitLinear computes the ordinary least-squares line through the points
// (xs[i], ys[i]). The slices must be the same length and contain at
// least two distinct x values.
func FitLinear(xs, ys []float64) (LinearModel, error) {
	if err := checkPaired(xs, ys); err != nil {
		return LinearModel{}, err
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearModel{}, ErrInsufficientData
	}
	m := LinearModel{
		Slope:     (n*sxy - sx*sy) / den,
		Intercept: (sy - (n*sxy-sx*sy)/den*sx) / n,
	}
	m.R2 = rSquared(xs, ys, m.Eval)
	return m, nil
}

// ExponentialModel is a least-squares exponential trend line
// y = Coeff * e^(Rate*x), fitted on log(y). This is the form of the
// paper's lower response-time equation (1): mrt = cL * e^(λL * N).
type ExponentialModel struct {
	Coeff float64 // cL in the paper
	Rate  float64 // λL in the paper
}

// Eval returns the model's estimate of y at x.
func (m ExponentialModel) Eval(x float64) float64 { return m.Coeff * math.Exp(m.Rate*x) }

// FitExponential fits y = c*e^(λx) by ordinary least squares on
// (x, ln y). All ys must be strictly positive.
func FitExponential(xs, ys []float64) (ExponentialModel, error) {
	if err := checkPaired(xs, ys); err != nil {
		return ExponentialModel{}, err
	}
	logy := make([]float64, len(ys))
	for i, y := range ys {
		if y <= 0 {
			return ExponentialModel{}, ErrNonPositive
		}
		logy[i] = math.Log(y)
	}
	lin, err := FitLinear(xs, logy)
	if err != nil {
		return ExponentialModel{}, err
	}
	return ExponentialModel{Coeff: math.Exp(lin.Intercept), Rate: lin.Slope}, nil
}

// PowerModel is a least-squares power-law trend line y = Coeff * x^Exp,
// fitted on (ln x, ln y). This is the form of the paper's relationship-2
// equation (4): λL = C(λL) * mx_throughput^Δ(λL).
type PowerModel struct {
	Coeff float64 // C(λL) in the paper
	Exp   float64 // Δ(λL) in the paper
}

// Eval returns the model's estimate of y at x. x must be positive for a
// meaningful result; Eval returns NaN otherwise.
func (m PowerModel) Eval(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	return m.Coeff * math.Pow(x, m.Exp)
}

// FitPower fits y = C*x^Δ by ordinary least squares on (ln x, ln y).
// All xs and ys must be strictly positive.
func FitPower(xs, ys []float64) (PowerModel, error) {
	if err := checkPaired(xs, ys); err != nil {
		return PowerModel{}, err
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return PowerModel{}, ErrNonPositive
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	lin, err := FitLinear(lx, ly)
	if err != nil {
		return PowerModel{}, err
	}
	return PowerModel{Coeff: math.Exp(lin.Intercept), Exp: lin.Slope}, nil
}

// FitProportional computes the least-squares gradient m of the
// through-origin line y = m*x. The historical method uses it for the
// clients→throughput relationship of §4.1, whose gradient depends only
// on the think time and is shared across server architectures.
func FitProportional(xs, ys []float64) (float64, error) {
	if err := checkPaired(xs, ys); err != nil {
		return 0, err
	}
	var sxx, sxy float64
	for i := range xs {
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	if sxx == 0 {
		return 0, ErrInsufficientData
	}
	return sxy / sxx, nil
}

func checkPaired(xs, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("stats: mismatched series lengths %d and %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return ErrInsufficientData
	}
	first := xs[0]
	distinct := false
	for _, x := range xs[1:] {
		if x != first {
			distinct = true
			break
		}
	}
	if !distinct {
		return ErrInsufficientData
	}
	return nil
}

func rSquared(xs, ys []float64, f func(float64) float64) float64 {
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssRes, ssTot float64
	for i := range ys {
		d := ys[i] - f(xs[i])
		ssRes += d * d
		t := ys[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
