package trade

import (
	"sort"

	"perfpred/internal/sim"
	"perfpred/internal/workload"
)

// This file adds the operation-level view of the Trade benchmark
// (§3.1). The prediction methods work at the request-type granularity
// (browse/buy), but the workload itself is defined in terms of
// operations: browse clients randomly select among the application's
// read operations with Trade's representative probabilities, and buy
// clients run register/login → a run of buy operations → logoff, with
// the client's portfolio growing by one holding per buy. The paper
// calibrates the buy class at a mean portfolio size of 5.5 — the mean
// of 1..10 holdings over a 10-buy session — and names portfolio size
// as a canonical "hard to measure" variable worth persisting in a
// recalibration service (§2).

// Operation is one interface operation of the Trade application.
type Operation struct {
	// Name is the operation ("quote", "buy", ...).
	Name string
	// Type is the request type whose demand tables the operation
	// draws from.
	Type workload.RequestType
	// DemandScale multiplies the type's app-server demand for this
	// operation (1 = the type's mean).
	DemandScale float64
	// DBCalls overrides the type's mean database calls when > 0.
	DBCalls float64
	// Weight is the operation's relative selection probability within
	// its class mix.
	Weight float64
}

// browseOperations returns the browse class's operation mix, with
// weights shaped like Trade's representative browse behaviour and
// demand scales that average to exactly the browse request type's
// demand (so the coarse two-type model and the operation-level model
// agree in aggregate).
func browseOperations() []Operation {
	return []Operation{
		{Name: "home", Type: workload.Browse, DemandScale: 0.70, DBCalls: 1.0, Weight: 0.20},
		{Name: "quote", Type: workload.Browse, DemandScale: 0.80, DBCalls: 1.0, Weight: 0.40},
		{Name: "portfolio", Type: workload.Browse, DemandScale: 1.50, DBCalls: 1.4, Weight: 0.25},
		{Name: "account", Type: workload.Browse, DemandScale: 1.20, DBCalls: 1.2, Weight: 0.15},
	}
}

// buySessionOperations returns the buy class's session operations.
// The buy operation's demand grows with the client's current
// portfolio size through PortfolioDemandSlope.
func buySessionOperations() (register, buy, logoff Operation) {
	register = Operation{Name: "register-login", Type: workload.Buy, DemandScale: 0.85, DBCalls: 2, Weight: 0}
	buy = Operation{Name: "buy", Type: workload.Buy, DemandScale: 1.0, DBCalls: 2, Weight: 0}
	logoff = Operation{Name: "logoff", Type: workload.Buy, DemandScale: 0.45, DBCalls: 1, Weight: 0}
	return
}

// PortfolioDemandSlope is the fractional app-demand increase per
// holding in the portfolio: processing a buy touches every existing
// holding, so a client's n-th buy costs (1 + slope·(n−1)) times the
// base demand. The default keeps the session-average buy demand equal
// to the coarse model's at the mean portfolio size of 5.5.
const PortfolioDemandSlope = 0.04

// portfolioScale returns the demand multiplier for a buy with n
// holdings already owned, normalised so a full 10-buy session averages
// to 1.0 (portfolio sizes 0..9 at purchase time, mean 4.5).
func portfolioScale(holdings int) float64 {
	base := 1 + PortfolioDemandSlope*float64(holdings)
	norm := 1 + PortfolioDemandSlope*4.5
	return base / norm
}

// OperationResult carries per-operation measurements from a detailed
// run.
type OperationResult struct {
	Operation string
	Completed int
	MeanRT    float64
}

// opAccumulators collects per-operation response times. It owns its
// reservoir stream and lazily creates one accumulator per operation
// name, deriving each from the operation's registration order — the
// hot-path record call needs no caller-supplied factory closure.
type opAccumulators struct {
	byName map[string]*classAcc
	max    int
	rng    *sim.Stream
}

func newOpAccumulators(max int, rng *sim.Stream) *opAccumulators {
	return &opAccumulators{byName: make(map[string]*classAcc), max: max, rng: rng}
}

func (o *opAccumulators) record(op string, rt float64) {
	acc, ok := o.byName[op]
	if !ok {
		acc = &classAcc{maxSample: o.max, rng: o.rng.Derive(uint64(len(o.byName)))}
		o.byName[op] = acc
	}
	acc.record(rt)
}

func (o *opAccumulators) results() []OperationResult {
	names := make([]string, 0, len(o.byName))
	for name := range o.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]OperationResult, 0, len(names))
	for _, name := range names {
		acc := o.byName[name]
		out = append(out, OperationResult{
			Operation: name,
			Completed: acc.rt.Count(),
			MeanRT:    acc.rt.Mean(),
		})
	}
	return out
}
