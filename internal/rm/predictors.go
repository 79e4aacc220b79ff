package rm

import (
	"fmt"

	"perfpred/internal/hist"
)

// ModelSet is the historical and hybrid methods' model set, which
// answers as a Predictor by architecture name.
type ModelSet = hist.ModelSet

// Biased wraps a Predictor with the §9.1 uniform predictive
// inaccuracy: "multiplying the actual number of clients by y gives the
// prediction", i.e. predicted capacity = y × actual capacity. Y < 1
// underpredicts capacity; Y > 1 overpredicts it.
type Biased struct {
	Base Predictor
	Y    float64
}

// MaxClients scales the base capacity by Y.
func (b Biased) MaxClients(arch string, goalRT float64) (float64, error) {
	if err := b.check(); err != nil {
		return 0, err
	}
	n, err := b.Base.MaxClients(arch, goalRT)
	if err != nil {
		return 0, err
	}
	return n * b.Y, nil
}

// Predict evaluates the base model at the un-biased population, so
// Predict and MaxClients stay mutually consistent.
func (b Biased) Predict(arch string, n float64) (float64, error) {
	if err := b.check(); err != nil {
		return 0, err
	}
	return b.Base.Predict(arch, n/b.Y)
}

// check rejects a bias that is not a positive factor: zero or below
// would answer a zero or negative capacity.
func (b Biased) check() error {
	if !(b.Y > 0) {
		return fmt.Errorf("rm: invalid bias %v", b.Y)
	}
	return nil
}
