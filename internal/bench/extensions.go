package bench

import (
	"perfpred/internal/lqn"
	"perfpred/internal/rtdist"
	"perfpred/internal/sessioncache"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// percentiles regenerates the §7.1 experiment: every figure-2 mean
// prediction converted to a 90th-percentile prediction via the
// exponential/Laplace distributions, scored against the measured 90th
// percentiles.
func (s *Suite) percentiles() (*Table, error) {
	t := &Table{
		ID:     "Section 7.1",
		Title:  "90th-percentile response time predictions from mean predictions",
		Header: []string{"Server", "Clients", "Measured p90 (ms)", "Historical p90 (ms)", "LQN p90 (ms)", "Hybrid p90 (ms)"},
	}
	b, err := s.LaplaceScale()
	if err != nil {
		return nil, err
	}
	points, err := s.figure2Walk()
	if err != nil {
		return nil, err
	}
	const p = 0.90
	for _, pt := range points {
		n := float64(pt.clients)
		measured := pt.meas.OverallPercentile(100 * p)
		histP, err := pt.hist.PredictPercentile(n, p, b)
		if err != nil {
			return nil, err
		}
		lqP, err := rtdist.PercentileFromMean(pt.lqn.MeanResponseTime(), pt.hist.Saturated(n), b, p)
		if err != nil {
			return nil, err
		}
		hyP, err := pt.hybrid.PredictPercentile(n, p, b)
		if err != nil {
			return nil, err
		}
		t.addRow(label(pt.arch.Name), itoa(pt.clients), ms(measured), ms(histP), ms(lqP), ms(hyP))
	}
	for i, method := range []string{"historical", "lqn", "hybrid"} {
		pair := byGroup(t, 3+i, 2)
		t.addNote("%s p90 accuracy: %.1f%% established / %.1f%% new", method, pair[0], pair[1])
	}
	t.addNote("calibrated Laplace scale b = %.1f ms (paper: 204.1 ms on its testbed)", b*1000)
	t.addNote("paper: historical 88%%/80%%, LQN 69%%/77%%, hybrid 70%%/77%% (est/new); at most 4.6%% below the mean-RT accuracies")
	return t, nil
}

// cacheStudy regenerates the §7.2 investigation: the real LRU's miss
// rate and response time across cache sizes, the historical method's
// fitted cache-size model, and the layered fixed-point attempt with
// its distributional assumption.
func (s *Suite) cacheStudy() (*Table, error) {
	t := &Table{
		ID:     "Section 7.2",
		Title:  "Session-cache modelling: measured vs historical fit vs layered fixed point",
		Header: []string{"Cache (% of working set)", "Measured miss", "Historical miss", "LQN fixed-point miss", "Measured RT (ms)", "LQN RT (ms)"},
	}
	const clients = 400
	const sessionBytes = 4096
	workingSet := float64(clients) * sessionBytes
	demands, err := s.lqnDemands()
	if err != nil {
		return nil, err
	}
	// The first nCal cache sizes calibrate the historical fit, the rest
	// evaluate it.
	capFracs := []float64{0.2, 0.85, 0.1, 0.35, 0.6, 0.95}
	const nCal = 2
	cfgs := make([]trade.Config, len(capFracs))
	for i, f := range capFracs {
		cfgs[i] = s.config(workload.AppServF(), workload.TypicalWorkload(clients))
		cfgs[i].Cache = &trade.CacheConfig{
			SizeBytes:        int64(f * workingSet),
			SessionBytesMean: sessionBytes,
		}
	}
	results, err := runConfigs(s, cfgs)
	if err != nil {
		return nil, err
	}
	calPoints := make([]sessioncache.CachePoint, nCal)
	for i, f := range capFracs[:nCal] {
		calPoints[i] = sessioncache.CachePoint{CapacityBytes: f * workingSet, MissRate: results[i].CacheMissRate}
	}
	missModel, err := sessioncache.FitMissRateModel(calPoints)
	if err != nil {
		return nil, err
	}
	for i, f := range capFracs[nCal:] {
		meas := results[nCal+i]
		histMiss := missModel.Predict(f * workingSet)
		fp, err := sessioncache.SolveWithCache(workload.AppServF(), workload.CaseStudyDB(),
			demands, workload.TypicalWorkload(clients),
			f*workingSet, sessionBytes, s.LQNOpt)
		if err != nil {
			return nil, err
		}
		t.addRow(f1(f*100), f2(meas.CacheMissRate), f2(histMiss), f2(fp.MissRate),
			ms(meas.MeanRT), ms(fp.Result.MeanResponseTime()))
	}
	t.addNote("historical method records cache size as a variable and fits the trend (works)")
	t.addNote("layered fixed point needs an assumed replacement-volume distribution the solver cannot predict (§7.2's difficulty); its miss-rate estimates are structurally rough")
	return t, nil
}

// lqnMaxClientsCost reports the §8.2/§8.5 search-cost experiment: the
// solver evaluations needed to find a server's SLA capacity by search,
// versus the historical method's single closed-form inversion.
func (s *Suite) lqnMaxClientsCost() (*Table, error) {
	t := &Table{
		ID:     "Section 8.2",
		Title:  "Cost of SLA capacity queries: layered search vs historical inversion",
		Header: []string{"Server", "Goal (ms)", "LQN max clients", "LQN solver evals", "Historical max clients"},
	}
	demands, err := s.lqnDemands()
	if err != nil {
		return nil, err
	}
	hms, _, err := s.histSet()
	if err != nil {
		return nil, err
	}
	for _, arch := range workload.CaseStudyServers() {
		for _, goal := range []float64{0.150, 0.300, 0.600} {
			model, err := lqn.NewTradeModel(arch, workload.CaseStudyDB(), demands, workload.TypicalWorkload(1))
			if err != nil {
				return nil, err
			}
			n, evals, err := lqn.MaxClientsSearch(model, "browse", goal, 1<<18, s.LQNOpt)
			if err != nil {
				return nil, err
			}
			hN, err := hms.MaxClients(arch.Name, goal)
			if err != nil {
				return nil, err
			}
			t.addRow(label(arch.Name), f1(goal*1000), itoa(n), itoa(evals), f1(hN))
		}
	}
	t.addNote("the layered method must search (multiple solver evaluations per query, §8.2); the historical method inverts its equations in closed form")
	return t, nil
}
