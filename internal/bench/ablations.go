package bench

import (
	"math"
	"time"

	"perfpred/internal/lqn"
	"perfpred/internal/rm"
	"perfpred/internal/stats"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// ablationTransition quantifies the §4.1 transition relationship: the
// historical model's accuracy through the saturation knee with the
// exponential phase-in versus a hard switch between the lower and
// upper equations at N*.
func (s *Suite) ablationTransition() (*Table, error) {
	t := &Table{
		ID:     "Ablation: transition",
		Title:  "Historical accuracy through the knee: transition phase-in vs hard switch",
		Header: []string{"Server", "Clients", "Measured (ms)", "With transition (ms)", "Hard switch (ms)"},
	}
	hms, _, err := s.histSet()
	if err != nil {
		return nil, err
	}
	// Populations inside the transition band, where the variants differ.
	fracs := []float64{0.7, 0.85, 1.0, 1.05}
	var cells []measureCell
	for _, arch := range workload.CaseStudyServers() {
		cells = append(cells, cellsAt(arch, hms[arch.Name].SaturationClients(), fracs)...)
	}
	results, err := measureCells(s, cells)
	if err != nil {
		return nil, err
	}
	var wPred, hPred, acts []float64
	for k, c := range cells {
		hm, n := hms[c.arch.Name], float64(c.clients)
		with := hm.Predict(n)
		hard := hm.Upper(n)
		if n < hm.SaturationClients() {
			hard = hm.Lower(n)
		}
		wPred = append(wPred, with)
		hPred = append(hPred, hard)
		acts = append(acts, results[k].MeanRT)
		t.addRow(label(c.arch.Name), itoa(c.clients), ms(results[k].MeanRT), ms(with), ms(hard))
	}
	t.addNote("knee accuracy: transition %.1f%% vs hard switch %.1f%%",
		stats.Accuracy(wPred, acts), stats.Accuracy(hPred, acts))
	return t, nil
}

// ablationMVA compares the Schweitzer approximation against the exact
// single-class MVA recursion on the typical-workload trade model.
func (s *Suite) ablationMVA() (*Table, error) {
	t := &Table{
		ID:     "Ablation: MVA",
		Title:  "Schweitzer AMVA vs exact MVA (single class, AppServF)",
		Header: []string{"Clients", "Approx RT (ms)", "Exact RT (ms)", "Delta %", "Approx time", "Exact time"},
	}
	demands, err := s.lqnDemands()
	if err != nil {
		return nil, err
	}
	for _, n := range []int{100, 400, 900, 1300, 1800, 2600} {
		model, err := lqn.NewTradeModel(workload.AppServF(), workload.CaseStudyDB(), demands, workload.TypicalWorkload(n))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		approx, err := lqn.Solve(model, s.LQNOpt)
		if err != nil {
			return nil, err
		}
		approxTime := time.Since(start)
		start = time.Now()
		exact, err := lqn.Solve(model, lqn.Options{ExactMVA: true})
		if err != nil {
			return nil, err
		}
		exactTime := time.Since(start)
		a := approx.MeanResponseTime()
		e := exact.MeanResponseTime()
		delta := 0.0
		if e > 0 {
			delta = 100 * math.Abs(a-e) / e
		}
		t.addRow(itoa(n), ms(a), ms(e), f2(delta), host(approxTime), host(exactTime))
	}
	t.addNote("exact MVA costs O(N) recursion steps; Schweitzer converges in a few sweeps regardless of N")
	return t, nil
}

// ablationConvergence shows the effect of the solver convergence
// criterion (the paper's 20 ms vs a tight 1 µs): iterations, solve
// time and the response-time wobble that produces figure 3's
// small-spacing noise.
func (s *Suite) ablationConvergence() (*Table, error) {
	t := &Table{
		ID:     "Ablation: convergence",
		Title:  "LQN convergence criterion: paper's 20ms vs tight 1e-6s",
		Header: []string{"Clients", "RT@20ms (ms)", "RT@1e-6 (ms)", "Delta (ms)", "Iters@20ms", "Iters@1e-6"},
	}
	demands, err := s.lqnDemands()
	if err != nil {
		return nil, err
	}
	for _, n := range []int{200, 800, 1300, 1500, 2200} {
		model, err := lqn.NewTradeModel(workload.AppServF(), workload.CaseStudyDB(), demands, workload.TypicalWorkload(n))
		if err != nil {
			return nil, err
		}
		coarse, err := lqn.Solve(model, lqn.Options{Convergence: 0.020})
		if err != nil {
			return nil, err
		}
		fine, err := lqn.Solve(model, lqn.Options{Convergence: 1e-6})
		if err != nil {
			return nil, err
		}
		c := coarse.MeanResponseTime()
		f := fine.MeanResponseTime()
		t.addRow(itoa(n), ms(c), ms(f), ms(math.Abs(c-f)), itoa(coarse.Iterations), itoa(fine.Iterations))
	}
	t.addNote("a coarse criterion can make close populations' predictions cross — the paper's figure-3 difficulty below x≈30 clients")
	return t, nil
}

// ablationTaskLayering compares the flattened (processor-only) solver
// against the task-layered one on a scenario where the application
// server's thread pool is the bottleneck: a 5-thread pool gating
// requests that spend ~200 ms per request blocked on database latency
// while every CPU idles. Only the layered solution sees the software
// queue.
func (s *Suite) ablationTaskLayering() (*Table, error) {
	t := &Table{
		ID:     "Ablation: task layering",
		Title:  "Thread-pool bottleneck: flattened vs task-layered solving (5-thread pool, latency-bound DB)",
		Header: []string{"Clients", "Measured (ms)", "Flattened LQN (ms)", "Layered LQN (ms)", "Measured X", "Layered X"},
	}
	arch := workload.AppServF()
	arch.MPL = 5
	demands := map[workload.RequestType]workload.Demand{
		workload.Browse: {
			AppServerTime:     0.002,
			DBTimePerCall:     0.001,
			DBCallsPerRequest: 4,
			DBLatencyPerCall:  0.050,
		},
	}
	class := workload.ServiceClass{Name: "browse", Mix: workload.Mix{workload.Browse: 1}, ThinkTimeMean: 1.0}
	populations := []int{10, 40, 80, 120}
	cfgs := make([]trade.Config, len(populations))
	for i, n := range populations {
		cfgs[i] = s.config(arch, workload.Workload{{Class: class, Clients: n}})
		cfgs[i].Demands = demands
	}
	results, err := runConfigs(s, cfgs)
	if err != nil {
		return nil, err
	}
	for i, n := range populations {
		meas, load := results[i], cfgs[i].Load
		model, err := lqn.NewTradeModel(arch, workload.CaseStudyDB(), demands, load)
		if err != nil {
			return nil, err
		}
		flat, err := lqn.Solve(model, s.LQNOpt)
		if err != nil {
			return nil, err
		}
		layered, err := lqn.Solve(model, lqn.Options{Convergence: s.LQNOpt.Convergence, TaskLayering: true})
		if err != nil {
			return nil, err
		}
		t.addRow(itoa(n), ms(meas.MeanRT),
			ms(flat.Classes["browse"].ResponseTime), ms(layered.Classes["browse"].ResponseTime),
			f1(meas.Throughput), f1(layered.Classes["browse"].Throughput))
	}
	t.addNote("the flattened solver models only processors and misses queues at software servers; task layering (the 'layered' in LQN) recovers them")
	return t, nil
}

// ablationLastServer measures Algorithm 1's smallest-feasible-server
// exception: planned server usage with and without the rule.
func (s *Suite) ablationLastServer() (*Table, error) {
	t := &Table{
		ID:     "Ablation: last-server rule",
		Title:  "Algorithm 1 with vs without the smallest-feasible-last-server exception",
		Header: []string{"Clients", "Usage % (with rule)", "Usage % (without)", "Fail % (with)", "Fail % (without)"},
	}
	pred, truth, servers, err := s.RMSetup()
	if err != nil {
		return nil, err
	}
	loads := []int{2000, 5000, 8000, 11000}
	withPts, err := rm.SweepLoad(rm.CaseStudyShares(), servers, pred, truth, 1.1, loads, rm.Options{})
	if err != nil {
		return nil, err
	}
	withoutPts, err := rm.SweepLoad(rm.CaseStudyShares(), servers, pred, truth, 1.1, loads, rm.Options{DisableLastServerRule: true})
	if err != nil {
		return nil, err
	}
	for i, load := range loads {
		t.addRow(itoa(load),
			f1(withPts[i].ServerUsagePct), f1(withoutPts[i].ServerUsagePct),
			f1(withPts[i].SLAFailurePct), f1(withoutPts[i].SLAFailurePct))
	}
	t.addNote("the rule avoids burning a large server on a small remainder, lowering %% server usage at light load")
	return t, nil
}
