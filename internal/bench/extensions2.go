package bench

import (
	"perfpred/internal/hist"
	"perfpred/internal/lqn"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// stabilisation exercises the §8.2 historical-only capability of
// modelling the time a server takes to settle toward steady state: a
// cold-start transient is measured on the simulated testbed and the
// exponential settling model fitted to it.
func (s *Suite) stabilisation() (*Table, error) {
	t := &Table{
		ID:     "Section 8.2 (stabilisation)",
		Title:  "Cold-start settling: measured trajectory vs fitted stabilisation model",
		Header: []string{"Time (s)", "Measured RT (ms)", "Model RT (ms)"},
	}
	cfg := s.config(workload.AppServF(), workload.TypicalWorkload(1900))
	cfg.Duration = 400 // from a cold start: Windows discards no warm-up
	curve, err := trade.Windows(cfg, 20)
	if err != nil {
		return nil, err
	}
	var pts []hist.StabilisationPoint
	for _, p := range curve {
		if p.Completed > 0 {
			pts = append(pts, hist.StabilisationPoint{Time: p.End, MeanRT: p.MeanRT})
		}
	}
	model, err := hist.FitStabilisation(pts)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		if i%2 == 0 { // thin the table
			t.addRow(f1(p.Time), ms(p.MeanRT), ms(model.At(p.Time)))
		}
	}
	t.addNote("fitted: steady %.0f ms, tau %.0f s; within 5%% of steady after %.0f s",
		model.Steady*1000, model.Tau, model.TimeToSteady(0.05))
	t.addNote("the layered queuing method makes only steady-state predictions (§8.2); the historical method records stabilisation as a variable")
	return t, nil
}

// clusterStudy exercises the §2 system model's application-server
// tier: a heterogeneous three-server tier under the workload-manager
// routing policies, validating that the database's per-server FIFO
// queues and the tier's aggregate capacity behave.
func (s *Suite) clusterStudy() (*Table, error) {
	t := &Table{
		ID:     "Section 2 (tier)",
		Title:  "Heterogeneous application tier under workload-manager routing policies",
		Header: []string{"Routing", "Mean RT (ms)", "Tier X (req/s)", "U(S)", "U(F)", "U(VF)"},
	}
	routings := []trade.RoutingPolicy{trade.RouteSticky, trade.RouteRoundRobin, trade.RouteLeastBusy}
	cfgs := make([]trade.Config, len(routings))
	for i, routing := range routings {
		cfgs[i] = s.config(workload.ServerArch{}, workload.TypicalWorkload(3600))
		cfgs[i].Servers = workload.CaseStudyServers()
		cfgs[i].Routing = routing
	}
	results, err := runConfigs(s, cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		t.addRow(label(string(routings[i])), ms(res.MeanRT), f1(res.Throughput),
			f2(res.PerServer[0].Utilization), f2(res.PerServer[1].Utilization), f2(res.PerServer[2].Utilization))
	}
	t.addNote("tier capacity ≈ 86+186+320 = 592 req/s; speed-blind round robin overloads the slow member")
	return t, nil
}

// openWorkload validates the mixed-network extension (§8.1 "clients
// sending requests at a constant rate"): open-stream response times
// from the simulator versus the layered solver across arrival rates.
func (s *Suite) openWorkload() (*Table, error) {
	t := &Table{
		ID:     "Section 8.1 (open)",
		Title:  "Constant-rate (open) workload: measured vs layered queuing",
		Header: []string{"Rate (req/s)", "Measured RT (ms)", "LQN RT (ms)"},
	}
	class := workload.ServiceClass{Name: "stream", Mix: workload.Mix{workload.Browse: 1}}
	demands, err := s.lqnDemands()
	if err != nil {
		return nil, err
	}
	rates := []float64{40, 80, 120, 150}
	cfgs := make([]trade.Config, len(rates))
	for i, rate := range rates {
		cfgs[i] = s.config(workload.AppServF(), workload.OpenWorkload(class, rate))
	}
	results, err := runConfigs(s, cfgs)
	if err != nil {
		return nil, err
	}
	for i, rate := range rates {
		pred, err := lqn.PredictTrade(workload.AppServF(), demands, cfgs[i].Load, s.LQNOpt)
		if err != nil {
			return nil, err
		}
		t.addRow(f1(rate), ms(results[i].MeanRT), ms(pred.Classes["stream"].ResponseTime))
	}
	t.addNote("open-workload LQN accuracy: %.1f%%", accuracy(t, 2, 1, everyRow))
	return t, nil
}

// percentileDirect compares the historical method's two routes to a
// percentile prediction on the new server: direct fitting of p90 data
// (§8.2) versus extrapolation from the mean through the §7.1
// distributions.
func (s *Suite) percentileDirect() (*Table, error) {
	t := &Table{
		ID:     "Section 8.2 (direct percentile)",
		Title:  "New-server p90: direct historical fit vs extrapolation from mean",
		Header: []string{"Clients", "Measured p90 (ms)", "Direct fit (ms)", "From mean (ms)"},
	}
	gradient, err := s.gradient()
	if err != nil {
		return nil, err
	}
	b, err := s.LaplaceScale()
	if err != nil {
		return nil, err
	}
	// The direct route is the §4 chain itself, fed the p90 each
	// calibration run recorded instead of its mean.
	directSet, _, err := s.calibrateChain(func(r *trade.Result) float64 { return r.OverallPercentile(90) })
	if err != nil {
		return nil, err
	}
	meanSet, _, err := s.histSet()
	if err != nil {
		return nil, err
	}
	sArch := workload.AppServS()
	sMax, err := s.maxThroughput(sArch)
	if err != nil {
		return nil, err
	}
	direct, meanModel := directSet[sArch.Name], meanSet[sArch.Name]
	cells := cellsAt(sArch, sMax/gradient, []float64{0.3, 0.5, 1.3, 1.6})
	results, err := measureCells(s, cells)
	if err != nil {
		return nil, err
	}
	for k, c := range cells {
		n := float64(c.clients)
		actual := results[k].OverallPercentile(90)
		dp := direct.Predict(n)
		ep, err := meanModel.PredictPercentile(n, 0.9, b)
		if err != nil {
			return nil, err
		}
		t.addRow(itoa(c.clients), ms(actual), ms(dp), ms(ep))
	}
	t.addNote("accuracy: direct %.1f%% vs from-mean %.1f%% (paper: direct recording avoids the ≤4.6%% extrapolation loss)",
		accuracy(t, 2, 1, everyRow), accuracy(t, 3, 1, everyRow))
	return t, nil
}
