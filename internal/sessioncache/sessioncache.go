// Package sessioncache models the §7.2 extension: application-server
// main memory acting as an LRU cache over per-client session data,
// where a cache miss costs an extra database call.
//
// The package provides both sides of the paper's argument:
//
//   - The historical method's route: record the architecture's cache
//     (main memory) size as a variable, fit the measured miss rate
//     against it (FitMissRateModel), and fold the predicted miss rate
//     into effective request demands (EffectiveDemand). This works
//     because the historical method can fit any observable trend.
//
//   - The layered queuing method's difficulty: the per-class miss
//     probability depends on the byte-replacement process between a
//     client's requests, whose rate depends on the model's own
//     solution (throughputs and response times) *and* on arrival-rate
//     distributions that a mean-value solver does not predict.
//     SolveWithCache implements the fixed-point iteration one would
//     attempt, making the required distributional assumption explicit
//     (exponential replacement volume) — precisely the step §7.2 calls
//     out as unsupported by the layered method, since "the layered
//     queuing method does not support parameters specified in terms of
//     metrics that the model predicts".
package sessioncache

import (
	"errors"
	"fmt"
	"math"

	"perfpred/internal/lqn"
	"perfpred/internal/obs"
	"perfpred/internal/stats"
	"perfpred/internal/workload"
)

// workingSetBytes is the expected total session data for a client
// population.
func workingSetBytes(clients int, meanSessionBytes float64) float64 {
	if clients < 0 || meanSessionBytes < 0 {
		return 0
	}
	return float64(clients) * meanSessionBytes
}

// EqualAccessMissRate is the closed-form first-cut estimate for
// equally active clients under LRU: the cache holds the k most
// recently active sessions (k = capacity / mean session size), and a
// request hits iff its client is among them, so the miss rate is
// max(0, 1 − k/N). It ignores session-size variance and think-time
// distribution — the information the historical method picks up from
// data and the layered method cannot.
func EqualAccessMissRate(clients int, meanSessionBytes, capacityBytes float64) float64 {
	if clients <= 0 || meanSessionBytes <= 0 {
		return 0
	}
	k := capacityBytes / meanSessionBytes
	miss := 1 - k/float64(clients)
	if miss < 0 {
		return 0
	}
	if miss > 1 {
		return 1
	}
	return miss
}

// CachePoint is one historical observation of the miss rate at a cache
// capacity (the cache size recorded "as a variable", §7.2).
type CachePoint struct {
	CapacityBytes float64
	MissRate      float64
}

// MissRateModel predicts the miss rate from the architecture's cache
// size, fitted from historical observations — the historical method's
// §7.2 answer.
type MissRateModel struct {
	line stats.LinearModel
}

// FitMissRateModel fits a linear miss-rate-vs-capacity trend from two
// or more observations (predictions clamp to [0,1]).
func FitMissRateModel(points []CachePoint) (*MissRateModel, error) {
	if len(points) < 2 {
		return nil, errors.New("sessioncache: need at least two cache observations")
	}
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		if p.CapacityBytes < 0 || p.MissRate < 0 || p.MissRate > 1 {
			return nil, fmt.Errorf("sessioncache: invalid observation %+v", p)
		}
		xs[i] = p.CapacityBytes
		ys[i] = p.MissRate
	}
	line, err := stats.FitLinear(xs, ys)
	if err != nil {
		return nil, err
	}
	return &MissRateModel{line: line}, nil
}

// Predict returns the fitted miss rate at the given capacity, clamped
// to [0,1].
func (m *MissRateModel) Predict(capacityBytes float64) float64 {
	r := m.line.Eval(capacityBytes)
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// EffectiveDemand folds a predicted miss rate into a request type's
// demand: each miss adds workload.CacheMissDBCalls database calls of
// the type's own per-call time, so only the call count grows. The
// result can be handed to any of the three methods' demand inputs.
func EffectiveDemand(d workload.Demand, missRate float64) (workload.Demand, error) {
	if missRate < 0 || missRate > 1 {
		return workload.Demand{}, fmt.Errorf("sessioncache: miss rate %v outside [0,1]", missRate)
	}
	d.DBCallsPerRequest += missRate * workload.CacheMissDBCalls
	return d, nil
}

// CacheSolveResult is the outcome of the layered fixed-point attempt.
type CacheSolveResult struct {
	// Result is the final layered solution at the converged miss rate.
	Result *lqn.Result
	// MissRate is the fixed-point miss rate.
	MissRate float64
	// Iterations spent in the outer fixed point.
	Iterations int
	// Converged reports whether the outer iteration stabilised.
	Converged bool
	// AssumptionNote records the distributional assumption the
	// iteration had to make — the step the layered method does not
	// support natively (§7.2).
	AssumptionNote string
}

// SolveWithCache attempts the §7.2 layered extension: iterate between
// (a) solving the layered model with the current miss rate folded into
// demands and (b) re-estimating the miss rate from the solution's
// throughput and response time. Step (b) requires the distribution of
// bytes replaced between a client's requests; only its *mean* is
// derivable from the solution (missRate × throughput × meanSession ×
// inter-request time), so an exponential shape is assumed — the
// unsupported extrapolation the paper identifies.
func SolveWithCache(server workload.ServerArch, db workload.DBServer, demands map[workload.RequestType]workload.Demand, load workload.Workload, capacityBytes, meanSessionBytes float64, opt lqn.Options) (*CacheSolveResult, error) {
	if capacityBytes <= 0 || meanSessionBytes <= 0 {
		return nil, errors.New("sessioncache: capacity and session size must be positive")
	}
	clients := load.TotalClients()
	miss := EqualAccessMissRate(clients, meanSessionBytes, capacityBytes) // initial guess

	// The model structure never changes across the fixed point — only
	// the effective demands do: one sweep, retuned in place each round,
	// instead of rebuilding, re-validating and re-resolving the whole
	// model every iteration.
	adjusted := make(map[workload.RequestType]workload.Demand, len(demands))
	retune := func() error {
		for rt, d := range demands {
			eff, err := EffectiveDemand(d, miss)
			if err != nil {
				return err
			}
			adjusted[rt] = eff
		}
		return nil
	}
	if err := retune(); err != nil {
		return nil, err
	}
	sweep, err := lqn.NewTradeSweep(server, db, adjusted, load, opt)
	if err != nil {
		return nil, err
	}

	var res *lqn.Result
	const maxOuter = 100
	converged := false
	iter := 0
	rebuilds := 0
	for ; iter < maxOuter; iter++ {
		if iter > 0 {
			if err := retune(); err != nil {
				return nil, err
			}
			if err := sweep.Retune(adjusted); err != nil {
				return nil, err
			}
			rebuilds++
		}
		res, err = sweep.Solve(load)
		if err != nil {
			return nil, err
		}
		x := res.TotalThroughput()
		r := res.MeanResponseTime()
		next := estimateMissRate(miss, x, r, clients, meanSessionBytes, capacityBytes, load)
		if math.Abs(next-miss) < 1e-6 {
			miss = next
			converged = true
			iter++
			break
		}
		// Averaging with the last iterate keeps the outer loop stable.
		miss = 0.5*miss + 0.5*next
	}
	sessioncacheSolves.Inc()
	sessioncacheIterations.Add(uint64(iter))
	sessioncacheRebuilds.Add(uint64(rebuilds))
	if !converged {
		sessioncacheNonconverged.Inc()
	}
	return &CacheSolveResult{
		Result:     res.Clone(),
		MissRate:   miss,
		Iterations: iter,
		Converged:  converged,
		AssumptionNote: "replacement volume between a client's requests assumed " +
			"exponentially distributed around its mean; the layered solver predicts " +
			"only mean values, so this distribution is an external assumption (§7.2)",
	}, nil
}

// The §7.2 layered fixed point's outer-loop work.
var (
	sessioncacheSolves       = obs.DeclareCounter("sessioncache_solves")       // SolveWithCache calls completed
	sessioncacheIterations   = obs.DeclareCounter("sessioncache_iterations")   // outer fixed-point iterations
	sessioncacheRebuilds     = obs.DeclareCounter("sessioncache_rebuilds")     // demand retunes folded back into the model
	sessioncacheNonconverged = obs.DeclareCounter("sessioncache_nonconverged") // fixed points that hit the iteration cap
)

// estimateMissRate re-derives the miss probability from mean-value
// solution metrics: the mean bytes replaced during a client's
// inter-request time T = Z + R is μ = missRate·X·s̄·T, and with the
// exponential assumption P(miss) = P(replaced > capacity − s̄) =
// e^(−(C−s̄)/μ).
func estimateMissRate(miss, x, r float64, clients int, meanSession, capacity float64, load workload.Workload) float64 {
	if clients <= 0 || x <= 0 {
		return 0
	}
	if workingSetBytes(clients, meanSession) <= capacity {
		return 0 // everything fits; no replacement pressure
	}
	think := 0.0
	if len(load) > 0 {
		think = load[0].Class.ThinkTimeMean
	}
	t := think + r
	mu := miss * x * meanSession * t
	headroom := capacity - meanSession
	if headroom <= 0 {
		return 1
	}
	if mu <= 0 {
		// No replacement traffic yet: bootstrap from the equal-access
		// estimate so the fixed point can leave the origin.
		return EqualAccessMissRate(clients, meanSession, capacity)
	}
	p := math.Exp(-headroom / mu)
	if p > 1 {
		return 1
	}
	return p
}
