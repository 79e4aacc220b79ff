package lqn

import (
	"time"
)

// Options tunes the solver.
type Options struct {
	// Convergence is the response-time convergence criterion in
	// seconds. The paper runs LQNS with 20 ms (0.020); tightening it
	// slows solving but removes the small-spacing noise seen in
	// figure 3. Zero selects 1e-6.
	Convergence float64
	// MaxIterations bounds the fixed-point sweeps (0 selects 10000).
	MaxIterations int
	// ExactMVA solves single-class models with the exact MVA
	// recursion instead of the Schweitzer approximation; it is an
	// ablation knob and returns an error on multiclass models or
	// models using open classes, priorities, second phases or
	// asynchronous calls.
	ExactMVA bool
	// TaskLayering solves with task-layer (thread pool) contention:
	// software servers queue independently of their processors, which
	// matters when a task's multiplicity is small relative to the
	// offered concurrency. Supports closed classes and synchronous
	// calls only. See layers.go.
	TaskLayering bool
}

// ClassResult is one service class's predicted steady-state metrics.
type ClassResult struct {
	// ResponseTime is the mean response time of a top-level request,
	// seconds, excluding think time.
	ResponseTime float64
	// Throughput is top-level requests per second (the arrival rate
	// for open classes).
	Throughput float64
}

// Result is a solved model.
type Result struct {
	// Classes maps class name to its predictions.
	Classes map[string]ClassResult
	// ProcessorUtil maps processor name to per-server utilisation.
	ProcessorUtil map[string]float64
	// ClassProcessorUtil maps processor name to each class's
	// contribution to its utilisation — the "utilisation information
	// for each service class at each processor" LQNS reports (§5).
	ClassProcessorUtil map[string]map[string]float64
	// Iterations and Converged describe the fixed-point run.
	Iterations int
	Converged  bool
	// SolveTime is the wall-clock cost of the evaluation — the §8.5
	// prediction-delay metric.
	SolveTime time.Duration

	// order lists the class names in model order, recorded by the
	// solver so sums over Classes add in one fixed order: float addition
	// is not associative, and Go's map iteration order would otherwise
	// move the last bits of a ≥3-class sum between identical solves.
	order []string
}

// classOrder returns the model's class names in declaration order.
func classOrder(m *Model) []string {
	names := make([]string, len(m.Classes))
	for i, cl := range m.Classes {
		names[i] = cl.Name
	}
	return names
}

// eachClass visits the class results in model class order, or in map
// order for a hand-built Result that carries none.
func (r *Result) eachClass(visit func(ClassResult)) {
	if len(r.order) != len(r.Classes) {
		for _, c := range r.Classes {
			visit(c)
		}
		return
	}
	for _, name := range r.order {
		visit(r.Classes[name])
	}
}

// MeanResponseTime returns the request-weighted mean response time
// across classes, the headline metric of figure 2.
func (r *Result) MeanResponseTime() float64 {
	var xSum, rxSum float64
	r.eachClass(func(c ClassResult) {
		xSum += c.Throughput
		rxSum += c.Throughput * c.ResponseTime
	})
	if xSum == 0 {
		return 0
	}
	return rxSum / xSum
}

// TotalThroughput returns the summed class throughputs.
func (r *Result) TotalThroughput() float64 {
	var x float64
	r.eachClass(func(c ClassResult) { x += c.Throughput })
	return x
}

// Solve evaluates the model and returns steady-state predictions. It
// is the one-shot entry point: each call resolves the model from
// scratch. Sequences of related solves (sweeps, calibration loops)
// should hold a Solver instead, which caches the resolution and reuses
// its workspace across calls.
func Solve(m *Model, opt Options) (*Result, error) {
	var s Solver
	res, err := s.Solve(m, opt)
	if err != nil {
		return nil, err
	}
	// The Solver is function-local, so its reused result escapes
	// nowhere else; hand it to the caller directly.
	return res, nil
}
