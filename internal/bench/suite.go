package bench

import (
	"fmt"
	"sort"
	"sync/atomic"

	"perfpred/internal/hist"
	"perfpred/internal/hybrid"
	"perfpred/internal/lqn"
	"perfpred/internal/parallel"
	"perfpred/internal/rtdist"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// Suite owns the shared calibration state the experiments reuse: the
// measured max throughputs, the gradient m, the §4 historical chain
// (the established servers' models, relationship 2 and the new
// server's model), the layered-queuing demands, the hybrid model, and
// every simulated cell any of them or any experiment measured.
// Everything is built lazily and memoised, so one Suite can serve all
// tables and figures measuring each cell once; nothing outlives the
// suite, so two suites never share a run.
//
// A Suite is safe for concurrent use: every memoised artefact sits
// behind a singleflight (parallel.Memo / parallel.Once), so concurrent
// figure generators share one calibration per key instead of racing or
// recomputing, and a legitimately-zero cached value (the old
// `if s.gradient != 0` bug) is never mistaken for "not yet computed".
// Concurrency of the suite's own sweeps is governed by Opt.Workers.
type Suite struct {
	// Opt configures simulated measurements (including the sweep
	// worker-pool size, Opt.Workers); LQNOpt the layered solver.
	Opt    trade.MeasureOptions
	LQNOpt lqn.Options

	cells          parallel.Memo[string, *trade.Result] // cellKey -> measured run
	maxima         parallel.Once[map[string]float64]    // case-study arch name -> measured Xmax (typical)
	gradientOnce   parallel.Once[float64]
	histOnce       parallel.Once[histChain]
	lqnDemandsOnce parallel.Once[map[workload.RequestType]workload.Demand]
	lqnPredicts    parallel.Memo[string, *lqn.Result] // arch+workload signature -> solution
	hybridModel    parallel.Once[*hybrid.Model]
	laplaceScale   parallel.Once[float64]

	// fannedRuns counts the simulator runs started from inside a
	// fan-out. The simulator counts every run; the difference is what
	// ran with the other workers idle (TestSerialSimulationCount).
	fannedRuns atomic.Int64
}

// NewSuite returns a harness with the given measurement seed. The
// zero Opt.Workers selects all cores for the suite's sweeps; set
// Opt.Workers = 1 to evaluate one cell at a time, in order, on one
// worker goroutine (the results are identical either way).
func NewSuite(seed int64) *Suite {
	return &Suite{
		Opt:    trade.MeasureOptions{Seed: seed, WarmUp: 30, Duration: 120},
		LQNOpt: lqn.Options{Convergence: 1e-6},
	}
}

// maxThroughput returns a case-study server's typical max throughput
// on the simulated testbed (arch must be one of the three). The first
// call benchmarks all three in one fan-out, longest run first: they
// head every calibration chain, and one at a time the new server's run
// would find the other workers idle.
func (s *Suite) maxThroughput(arch workload.ServerArch) (float64, error) {
	maxima, err := s.maxima.Do(func() (map[string]float64, error) {
		archs := []workload.ServerArch{workload.AppServVF(), workload.AppServF(), workload.AppServS()}
		xs, err := simulateAll(s, len(archs), func(i int) (float64, error) {
			return trade.MaxThroughput(archs[i], 0, s.Opt)
		})
		maxima := make(map[string]float64, len(archs))
		for i, x := range xs {
			maxima[archs[i].Name] = x
		}
		return maxima, err
	})
	return maxima[arch.Name], err
}

// gradient calibrates (and memoises) the shared clients→throughput
// gradient m from below-saturation measurements on AppServF.
func (s *Suite) gradient() (float64, error) {
	return s.gradientOnce.Do(func() (float64, error) {
		xMax, err := s.maxThroughput(workload.AppServF())
		if err != nil {
			return 0, err
		}
		nStar := xMax / 0.14 // provisional anchor just to stay below saturation
		cells := cellsAt(workload.AppServF(), nStar, []float64{0.25, 0.5})
		results, err := measureCells(s, cells)
		if err != nil {
			return 0, err
		}
		tps := make([]hist.ThroughputPoint, len(cells))
		for i, c := range cells {
			tps[i] = hist.ThroughputPoint{Clients: float64(c.clients), Throughput: results[i].Throughput}
		}
		return hist.CalibrateGradient(tps)
	})
}

// calibrationFracs places the historical calibration's data points as
// fractions of the saturation population: two below and two above it,
// the paper's minimal nldp = nudp = 2.
var calibrationFracs = []float64{0.25, 0.55, 1.2, 1.6}

// calibrateChain runs the §4 chain over the case-study servers in
// CaseStudyServers order. Each established server gets a data point at
// each of calibrationFracs of its saturation population, all measured
// in one fan-out, with rt reading the point's response-time variable
// from its run; the new server is extrapolated from its benchmark.
func (s *Suite) calibrateChain(rt func(*trade.Result) float64) (hist.ModelSet, *hist.Relationship2, error) {
	m, err := s.gradient()
	if err != nil {
		return nil, nil, err
	}
	var histories []hist.ServerHistory
	var cells []measureCell
	for _, arch := range workload.CaseStudyServers() {
		xMax, err := s.maxThroughput(arch)
		if err != nil {
			return nil, nil, err
		}
		h := hist.ServerHistory{Arch: arch, MaxThroughput: xMax}
		if arch.Established {
			for _, c := range cellsAt(arch, xMax/m, calibrationFracs) {
				cells = append(cells, c)
				h.Points = append(h.Points, hist.DataPoint{Clients: float64(c.clients)})
			}
		}
		histories = append(histories, h)
	}
	results, err := measureCells(s, cells)
	if err != nil {
		return nil, nil, err
	}
	k := 0
	for _, h := range histories {
		for j := range h.Points {
			h.Points[j].MeanRT = rt(results[k])
			k++
		}
	}
	return hist.CalibrateSet(m, histories)
}

// histChain is what histSet memoises of the chain's output.
type histChain struct {
	models hist.ModelSet
	rel2   *hist.Relationship2
}

// histSet calibrates (and memoises) the mean-response-time models of
// every case-study server — the §9.1 stand-in for the real system —
// and the relationship 2 fitted across the established servers
// (AppServF is its λU reference).
func (s *Suite) histSet() (hist.ModelSet, *hist.Relationship2, error) {
	chain, err := s.histOnce.Do(func() (histChain, error) {
		models, rel2, err := s.calibrateChain(func(r *trade.Result) float64 { return r.MeanRT })
		return histChain{models, rel2}, err
	})
	return chain.models, chain.rel2, err
}

// HistModelFor returns the historical model used for an architecture:
// measured calibration for established servers, relationship 2 for the
// new one.
func (s *Suite) HistModelFor(arch workload.ServerArch) (*hist.ServerModel, error) {
	models, _, err := s.histSet()
	if sm, ok := models[arch.Name]; ok || err != nil {
		return sm, err
	}
	return nil, fmt.Errorf("bench: %s is not a case-study server", arch.Name)
}

// lqnDemands calibrates (and memoises) the per-request-type demands on
// AppServF per §5: one single-request-type measurement per type,
// demands from the utilisation law.
func (s *Suite) lqnDemands() (map[workload.RequestType]workload.Demand, error) {
	return s.lqnDemandsOnce.Do(func() (map[workload.RequestType]workload.Demand, error) {
		truth := workload.CaseStudyDemands()
		types := []workload.RequestType{workload.Browse, workload.Buy}
		calibrated, err := simulateAll(s, len(types), func(i int) (workload.Demand, error) {
			rt := types[i]
			class := workload.ServiceClass{
				Name:          "calib",
				Mix:           workload.Mix{rt: 1},
				ThinkTimeMean: workload.ThinkTimeMean,
			}
			res, err := trade.Measure(workload.AppServF(), workload.Workload{{Class: class, Clients: 1100}}, s.Opt)
			if err != nil {
				return workload.Demand{}, err
			}
			d, err := lqn.CalibrateDemand(lqn.CalibrationRun{
				Throughput:        res.Throughput,
				AppUtilization:    res.AppUtilization,
				DBUtilization:     res.DBUtilization,
				DBCallsPerRequest: truth[rt].DBCallsPerRequest,
				AppSpeed:          1,
				DBSpeed:           1,
			})
			if err != nil {
				return workload.Demand{}, fmt.Errorf("bench: calibrating %s: %w", rt, err)
			}
			return d, nil
		})
		if err != nil {
			return nil, err
		}
		demands := make(map[workload.RequestType]workload.Demand, len(types))
		for i, rt := range types {
			demands[rt] = calibrated[i]
		}
		return demands, nil
	})
}

// lqnPredict solves (and memoises) the layered model for an
// architecture and workload using the calibrated demands. Several
// experiments revisit the same (architecture, workload) cells —
// figure 2, its accuracy table and the percentile study share a grid —
// so repeats are served from the memo. Each miss is solved cold and
// independently, so a cell's value never depends on which experiment
// asked first. Callers share the cached result and must not mutate it.
func (s *Suite) lqnPredict(arch workload.ServerArch, load workload.Workload) (*lqn.Result, error) {
	return s.lqnPredicts.Do(lqnKey(arch, load), func() (*lqn.Result, error) {
		demands, err := s.lqnDemands()
		if err != nil {
			return nil, err
		}
		return lqn.PredictTrade(arch, demands, load, s.LQNOpt)
	})
}

// lqnKey is the memo key for lqnPredict: the architecture plus every
// workload parameter the trade model reads.
func lqnKey(arch workload.ServerArch, load workload.Workload) string {
	key := arch.Name
	for _, p := range load {
		key += fmt.Sprintf("|%s,%d,%g,%g", p.Class.Name, p.Clients, p.ArrivalRate, p.Class.ThinkTimeMean)
		types := make([]workload.RequestType, 0, len(p.Class.Mix))
		for rt := range p.Class.Mix {
			types = append(types, rt)
		}
		sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
		for _, rt := range types {
			key += fmt.Sprintf(";%s=%g", rt, p.Class.Mix[rt])
		}
	}
	return key
}

// Hybrid builds (and memoises) the advanced hybrid model over all
// three architectures, generating the per-architecture pseudo data on
// the suite's worker pool.
func (s *Suite) Hybrid() (*hybrid.Model, error) {
	return s.hybridModel.Do(func() (*hybrid.Model, error) {
		demands, err := s.lqnDemands()
		if err != nil {
			return nil, err
		}
		return hybrid.Build(hybrid.Config{
			DB:      workload.CaseStudyDB(),
			Demands: demands,
			LQN:     s.LQNOpt,
			Workers: s.Opt.Workers,
		}, workload.CaseStudyServers())
	})
}

// LaplaceScale calibrates (and memoises) the §7.1 post-saturation
// Laplace scale b from one saturated measurement on AppServF.
func (s *Suite) LaplaceScale() (float64, error) {
	return s.laplaceScale.Do(func() (float64, error) {
		xMax, err := s.maxThroughput(workload.AppServF())
		if err != nil {
			return 0, err
		}
		m, err := s.gradient()
		if err != nil {
			return 0, err
		}
		res, err := measureCells(s, cellsAt(workload.AppServF(), xMax/m, []float64{1.4}))
		if err != nil {
			return 0, err
		}
		return rtdist.CalibrateScale(res[0].MeanRT, res[0].PerClass["browse"].Samples)
	})
}
