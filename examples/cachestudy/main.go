// Cache study: the paper's §7.2 extension — application-server main
// memory as an LRU cache over per-client session data. The example
// measures the real (simulated) LRU across cache sizes, fits the
// historical method's cache-size relationship, and contrasts it with
// the layered fixed-point attempt that needs a distributional
// assumption the solver cannot supply.
package main

import (
	"fmt"
	"log"

	"perfpred"
)

func main() {
	const clients = 400
	const sessionBytes = 4096.0
	workingSet := clients * sessionBytes

	measure := func(capacity float64) *perfpred.SimResult {
		cfg := perfpred.SimConfig{
			Server:   perfpred.AppServF(),
			DB:       perfpred.CaseStudyDB(),
			Demands:  perfpred.CaseStudyDemands(),
			Load:     perfpred.TypicalWorkload(clients),
			Seed:     3,
			WarmUp:   30,
			Duration: 120,
			Cache: &perfpred.SimCacheConfig{
				SizeBytes:        int64(capacity),
				SessionBytesMean: sessionBytes,
			},
		}
		res, err := perfpred.RunSim(cfg)
		check(err)
		return res
	}

	// Historical method: two observations calibrate the cache-size
	// variable; the model then predicts unseen sizes.
	fmt.Println("calibrating the historical cache-size relationship...")
	calFracs := []float64{0.2, 0.85}
	var points []perfpred.CachePoint
	for _, f := range calFracs {
		res := measure(f * workingSet)
		points = append(points, perfpred.CachePoint{
			CapacityBytes: f * workingSet,
			MissRate:      res.CacheMissRate,
		})
		fmt.Printf("  cache=%3.0f%% of working set: measured miss rate %.3f\n", f*100, res.CacheMissRate)
	}
	missModel, err := perfpred.FitMissRateModel(points)
	check(err)

	fmt.Println("\ncache-size sweep (miss rates):")
	fmt.Println("cache%  measured  historical  equal-access  lqn-fixed-point")
	for _, f := range []float64{0.1, 0.35, 0.6, 0.95} {
		capacity := f * workingSet
		meas := measure(capacity)
		histMiss := missModel.Predict(capacity)
		naive := perfpred.EqualAccessMissRate(clients, sessionBytes, capacity)
		fp, err := perfpred.SolveLQNWithCache(perfpred.AppServF(), perfpred.CaseStudyDB(),
			perfpred.CaseStudyDemands(), perfpred.TypicalWorkload(clients),
			capacity, sessionBytes, perfpred.LQNOptions{})
		check(err)
		fmt.Printf("%5.0f%%  %8.3f  %10.3f  %12.3f  %15.3f\n",
			f*100, meas.CacheMissRate, histMiss, naive, fp.MissRate)
	}

	// The point of §7.2: what the layered attempt had to assume.
	fp, err := perfpred.SolveLQNWithCache(perfpred.AppServF(), perfpred.CaseStudyDB(),
		perfpred.CaseStudyDemands(), perfpred.TypicalWorkload(clients),
		0.3*workingSet, sessionBytes, perfpred.LQNOptions{})
	check(err)
	fmt.Printf("\nlayered fixed point converged=%v in %d iterations\n", fp.Converged, fp.Iterations)
	fmt.Printf("assumption it needed: %s\n", fp.AssumptionNote)

	// Performance impact: fold the predicted miss rate into effective
	// demands and re-solve — the modelling route all three methods can
	// share once a miss rate is known.
	eff, err := perfpred.EffectiveDemand(perfpred.CaseStudyDemands()[perfpred.Browse],
		missModel.Predict(0.3*workingSet))
	check(err)
	fmt.Printf("\neffective browse demand at 30%% cache: %.2f db calls/request (vs 1.14 uncached)\n",
		eff.DBCallsPerRequest)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
