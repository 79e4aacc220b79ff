package bench

import (
	"context"
	"time"

	"perfpred/internal/parallel"
	"perfpred/internal/rm"
	"perfpred/internal/workload"
)

// RMSetup assembles the §9.1 study: the truth predictor is the more
// accurate historical model set (calibrated against the simulated
// testbed) and the planning predictor is the hybrid model — exactly
// the paper's choice of "the more accurate historical model ... to
// represent the real system response times, and the hybrid model ...
// as the less accurate predictions".
func (s *Suite) RMSetup() (pred, truth rm.Predictor, servers []rm.Server, err error) {
	truthSet, _, err := s.histSet()
	if err != nil {
		return nil, nil, nil, err
	}
	hyb, err := s.Hybrid()
	if err != nil {
		return nil, nil, nil, err
	}
	return hyb.Servers, truthSet, rm.CaseStudyServers(), nil
}

// studyLoads sweeps the offered load like figures 5 and 6, up to and
// beyond the 16-server pool's capacity (~19k clients at the loosest
// goal), so the series include the saturation region where low-slack
// plans start failing (the spike at 9000 clients in the paper's
// figure 5 sits inside the corresponding range).
func studyLoads() []int {
	loads := make([]int, 0, 22)
	for n := 1000; n <= 22000; n += 1000 {
		loads = append(loads, n)
	}
	return loads
}

// figure5and6 regenerates figures 5 and 6: % SLA failures and % server
// usage versus total clients at three slack levels.
func (s *Suite) figure5and6() (*Table, error) {
	t := &Table{
		ID:     "Figures 5-6",
		Title:  "Resource manager cost metrics vs load at different slack levels",
		Header: []string{"Clients", "fail% s=1.1", "use% s=1.1", "fail% s=1.0", "use% s=1.0", "fail% s=0.9", "use% s=0.9"},
	}
	pred, truth, servers, err := s.RMSetup()
	if err != nil {
		return nil, err
	}
	// The three slack series are independent plan/evaluate sweeps over
	// read-only predictors, so they run concurrently on the pool.
	slacks := []float64{1.1, 1.0, 0.9}
	series, err := parallel.Map(context.Background(), s.Opt.Workers, len(slacks),
		func(_ context.Context, i int) ([]rm.SweepPoint, error) {
			// The study sweeps slack below 1 deliberately (figure 5's
			// 0.9 line), which Allocate otherwise rejects.
			return rm.SweepLoad(rm.CaseStudyShares(), servers, pred, truth, slacks[i], studyLoads(), rm.Options{AllowDeflation: true})
		})
	if err != nil {
		return nil, err
	}
	for j, load := range studyLoads() {
		t.addRow(itoa(load),
			f1(series[0][j].SLAFailurePct), f1(series[0][j].ServerUsagePct),
			f1(series[1][j].SLAFailurePct), f1(series[1][j].ServerUsagePct),
			f1(series[2][j].SLAFailurePct), f1(series[2][j].ServerUsagePct))
	}
	t.addNote("paper: slack 1.1 is the minimum with 0%% SLA failures before 100%% usage (SUmax=62.7%%); lower slack trades failures for usage")
	return t, nil
}

// figure7 regenerates figure 7: the averaged cost metrics as the slack
// is reduced from 1.1 to 0.
func (s *Suite) figure7() (*Table, error) {
	t := &Table{
		ID:     "Figure 7",
		Title:  "Average % SLA failures and % server usage saving, slack 1.1 -> 0",
		Header: []string{"Slack", "Avg fail %", "Avg usage %", "Avg usage saving %"},
	}
	pred, truth, servers, err := s.RMSetup()
	if err != nil {
		return nil, err
	}
	var slacks []float64
	for v := 1.1; v > 0.001; v -= 0.1 {
		slacks = append(slacks, v)
	}
	slacks = append(slacks, 0)
	points, err := rm.SweepSlack(rm.CaseStudyShares(), servers, pred, truth, slacks, studyLoads(), rm.Options{AllowDeflation: true})
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		t.addRow(f2(p.Slack), f1(p.AvgFailPct), f1(p.AvgUsagePct), f1(p.AvgUsageSavingPct))
	}
	t.addNote("paper: saving initially outpaces failures (first 0.1 of slack), the rates match between 1.0 and 0.9, then failures dominate toward 100%% at slack 0")
	return t, nil
}

// figure8 regenerates figure 8: the fine-grained failure/saving
// trade-off between slack 1.1 and 0.9.
func (s *Suite) figure8() (*Table, error) {
	t := &Table{
		ID:     "Figure 8",
		Title:  "SLA failures vs server usage saving, slack 1.1 -> 0.9",
		Header: []string{"Slack", "Avg fail %", "Avg usage saving %"},
	}
	pred, truth, servers, err := s.RMSetup()
	if err != nil {
		return nil, err
	}
	var slacks []float64
	for v := 1.10; v >= 0.899; v -= 0.025 {
		slacks = append(slacks, v)
	}
	points, err := rm.SweepSlack(rm.CaseStudyShares(), servers, pred, truth, slacks, studyLoads(), rm.Options{AllowDeflation: true})
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		t.addRow(f3(p.Slack), f2(p.AvgFailPct), f2(p.AvgUsageSavingPct))
	}
	return t, nil
}

// uniformInaccuracy regenerates the §9.1 uniform-error experiment:
// with predictions that are y times reality, slack = y restores 0% SLA
// failures at a y-independent server usage.
func (s *Suite) uniformInaccuracy() (*Table, error) {
	t := &Table{
		ID:     "Section 9.1 (uniform)",
		Title:  "Uniform predictive inaccuracy compensated by slack = y",
		Header: []string{"y", "Max fail % (slack=y)", "Avg usage % (slack=y)", "Max fail % (slack=1)"},
	}
	truthSet, _, err := s.histSet()
	if err != nil {
		return nil, err
	}
	servers := rm.CaseStudyServers()
	loads := []int{2000, 4000, 6000, 8000}
	// maxFail is a sweep's worst SLA failure % below full server usage.
	maxFail := func(points []rm.SweepPoint) float64 {
		worst := 0.0
		for _, p := range points {
			if p.ServerUsagePct < 100 {
				worst = max(worst, p.SLAFailurePct)
			}
		}
		return worst
	}
	for _, y := range []float64{0.9, 1.0, 1.1, 1.2, 1.3} {
		pred := rm.Biased{Base: truthSet, Y: y}
		// slack = y dips below 1 at y = 0.9.
		compensated, err := rm.SweepLoad(rm.CaseStudyShares(), servers, pred, truthSet, y, loads, rm.Options{AllowDeflation: true})
		if err != nil {
			return nil, err
		}
		uncompensated, err := rm.SweepLoad(rm.CaseStudyShares(), servers, pred, truthSet, 1.0, loads, rm.Options{})
		if err != nil {
			return nil, err
		}
		_, usage := rm.AverageMetrics(compensated)
		t.addRow(f2(y), f2(maxFail(compensated)), f1(usage), f2(maxFail(uncompensated)))
	}
	t.addNote("paper: slack = y gives 0%% SLA failures below 100%% usage and a constant %% server usage at any uniform accuracy")
	return t, nil
}

// provider exercises the §2 outer loop: a service provider hosting
// two applications with shifting loads, the resource manager
// transferring isolated servers between them epoch by epoch.
func (s *Suite) provider() (*Table, error) {
	t := &Table{
		ID:     "Section 2 (provider)",
		Title:  "Multi-application provider: server transfers as load shifts between applications",
		Header: []string{"Epoch", "Shop load", "Bank load", "Transfers", "Shop servers", "Bank servers", "Shop fail%", "Bank fail%"},
	}
	pred, truth, servers, err := s.RMSetup()
	if err != nil {
		return nil, err
	}
	shopLoad := []int{6000, 6000, 4000, 2000, 1000, 1000}
	bankLoad := []int{1000, 1000, 3000, 5000, 6000, 6000}
	apps := []rm.Application{
		{Name: "shop", Shares: rm.CaseStudyShares(), LoadPerEpoch: shopLoad},
		{Name: "bank", Shares: rm.CaseStudyShares(), LoadPerEpoch: bankLoad},
	}
	results, err := rm.RunProvider(apps, servers, pred, truth, 1.1)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		t.addRow(itoa(r.Epoch), itoa(shopLoad[i]), itoa(bankLoad[i]), itoa(r.Transfers),
			itoa(len(r.ServersByApp["shop"])), itoa(len(r.ServersByApp["bank"])),
			f1(r.FailurePctByApp["shop"]), f1(r.FailurePctByApp["bank"]))
	}
	t.addNote("§2: 'a resource manager that controls the transfer of application servers between those applications'; servers are whole-unit isolated and follow the load")
	return t, nil
}

// predictionDelay regenerates the §8.5 comparison: per-prediction
// evaluation delay for each method, plus the hybrid start-up delay.
func (s *Suite) predictionDelay() (*Table, error) {
	t := &Table{
		ID:     "Section 8.5",
		Title:  "Prediction evaluation delay per method",
		Header: []string{"Method", "Per-prediction", "One-off start-up"},
	}
	hms, _, err := s.histSet()
	if err != nil {
		return nil, err
	}
	hm := hms[workload.AppServF().Name]
	const reps = 2000
	start := time.Now()
	for i := 0; i < reps; i++ {
		_ = hm.Predict(float64(100 + i))
	}
	histPer := time.Since(start) / reps

	if _, err := s.lqnDemands(); err != nil {
		return nil, err
	}
	const lqnReps = 50
	start = time.Now()
	for i := 0; i < lqnReps; i++ {
		if _, err := s.lqnPredict(workload.AppServF(), workload.TypicalWorkload(800+i)); err != nil {
			return nil, err
		}
	}
	lqnPer := time.Since(start) / lqnReps

	hyb, err := s.Hybrid()
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := hyb.Servers.Predict("AppServF", float64(100+i)); err != nil {
			return nil, err
		}
	}
	hybridPer := time.Since(start) / reps

	t.addRow(label("historical"), host(histPer), label("none"))
	t.addRow(label("layered queuing"), host(lqnPer), label("none"))
	t.addRow(label("hybrid"), host(hybridPer), host(hyb.StartupDelay))
	t.addNote("paper (Athlon 1.4GHz): LQNS up to 3s per solve; historical ≈instant; hybrid 11s start-up then ≈instant — the ordering, not the absolute times, is the reproducible claim")
	return t, nil
}
