package rm

import (
	"fmt"
	"math"

	"perfpred/internal/parallel"
	"perfpred/internal/sla"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// maxOracleClients bounds the capacity search: no case-study
// architecture holds this many clients within any sane SLA goal.
const maxOracleClients = 1 << 18

// population rounds a predictor's client-count argument to the nearest
// population ≥ 1. It refuses one beyond the capacity search's limit
// (and NaN): the float→int conversion of 1e19 wraps negative, and one
// client's response time would answer for it.
func population(n float64) (int, error) {
	if !(n <= maxOracleClients) {
		return 0, fmt.Errorf("rm: population %v is beyond the model's range (max %d)", n, maxOracleClients)
	}
	return max(1, int(math.Round(n))), nil
}

// SimOracle is a Predictor backed by the simulated testbed itself: each
// Predict runs (and memoizes) a trade measurement of the architecture
// at the requested population, and MaxClients searches the population
// by doubling plus bisection. It plays the "truth" role in resource-
// manager evaluations — the measured reality the planning predictors
// are scored against — without pre-calibrating a model.
//
// Opt tunes the underlying fixed-horizon measurements. The memo is
// concurrency-safe: parallel sweeps sharing one oracle deduplicate
// identical probes in flight.
type SimOracle struct {
	archs map[string]workload.ServerArch
	opt   trade.MeasureOptions
	memo  parallel.Memo[simProbe, float64]
}

type simProbe struct {
	arch    string
	clients int
}

// NewSimOracle builds an oracle over the given architectures.
func NewSimOracle(archs []workload.ServerArch, opt trade.MeasureOptions) *SimOracle {
	m := make(map[string]workload.ServerArch, len(archs))
	for _, a := range archs {
		m[a.Name] = a
	}
	return &SimOracle{archs: m, opt: opt}
}

// Predict returns the measured mean response time (seconds) of the
// architecture under the typical workload at n clients. Results are
// memoized per (architecture, population).
func (o *SimOracle) Predict(arch string, n float64) (float64, error) {
	a, ok := o.archs[arch]
	if !ok {
		return 0, fmt.Errorf("rm: no architecture %q in oracle", arch)
	}
	clients, err := population(n)
	if err != nil {
		return 0, err
	}
	return o.memo.Do(simProbe{arch: arch, clients: clients}, func() (float64, error) {
		res, err := trade.Measure(a, workload.TypicalWorkload(clients), o.opt)
		if err != nil {
			return 0, err
		}
		return res.MeanRT, nil
	})
}

// MaxClients returns the largest population whose measured mean
// response time stays within goalRT, found by the shared doubling plus
// bisection search. Every probe lands in the memo, so a follow-up
// Predict at the capacity is free.
func (o *SimOracle) MaxClients(arch string, goalRT float64) (float64, error) {
	n, err := sla.Goal{MaxRT: goalRT}.MaxClients(maxOracleClients, func(n float64) (float64, error) {
		return o.Predict(arch, n)
	})
	return float64(n), err
}
