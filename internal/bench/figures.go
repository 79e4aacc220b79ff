package bench

import (
	"perfpred/internal/hist"
	"perfpred/internal/hybrid"
	"perfpred/internal/lqn"
	"perfpred/internal/stats"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// figure2Fractions are the client populations (as fractions of each
// server's saturation load N*) swept by the scalability experiments.
var figure2Fractions = []float64{0.2, 0.35, 0.5, 0.8, 1.0, 1.2, 1.45, 1.7}

// figure2Point is one cell of the grid figure 2, its accuracy summary
// and the §7.1 percentile study share, with what was measured there and
// each method's answer: the historical and hybrid models of the cell's
// server and the layered solution at its population.
type figure2Point struct {
	arch         workload.ServerArch
	clients      int
	group        string // "established" or "new"
	meas         *trade.Result
	hist, hybrid *hist.ServerModel
	lqn          *lqn.Result
}

// figure2Walk measures every case-study server at each of
// figure2Fractions of its saturation population, server-major, in one
// fan-out, and asks the three methods about every cell.
func (s *Suite) figure2Walk() ([]figure2Point, error) {
	hyb, err := s.Hybrid()
	if err != nil {
		return nil, err
	}
	hms, _, err := s.histSet()
	if err != nil {
		return nil, err
	}
	var cells []measureCell
	for _, arch := range workload.CaseStudyServers() {
		for _, c := range cellsAt(arch, hms[arch.Name].SaturationClients(), figure2Fractions) {
			c.clients = max(c.clients, 1)
			cells = append(cells, c)
		}
	}
	results, err := measureCells(s, cells)
	if err != nil {
		return nil, err
	}
	points := make([]figure2Point, len(cells))
	for k, c := range cells {
		lq, err := s.lqnPredict(c.arch, workload.TypicalWorkload(c.clients))
		if err != nil {
			return nil, err
		}
		group := "new"
		if c.arch.Established {
			group = "established"
		}
		points[k] = figure2Point{
			arch: c.arch, clients: c.clients, group: group, meas: results[k],
			hist: hms[c.arch.Name], hybrid: hyb.Servers[c.arch.Name], lqn: lq,
		}
	}
	return points, nil
}

// accuracies collects (predicted, actual) pairs per method and server
// group and scores each series.
type accuracies map[[2]string]*[2][]float64

func (a accuracies) record(method, group string, pred, act float64) {
	k := [2]string{method, group}
	if a[k] == nil {
		a[k] = new([2][]float64)
	}
	a[k][0] = append(a[k][0], pred)
	a[k][1] = append(a[k][1], act)
}

// of returns the method's (established, new) accuracy pair.
func (a accuracies) of(method string) [2]float64 {
	var out [2]float64
	for i, group := range []string{"established", "new"} {
		series := a[[2]string{method, group}]
		out[i] = stats.Accuracy(series[0], series[1])
	}
	return out
}

// figure2 regenerates the paper's figure 2: measured mean response
// time versus the historical, layered queuing and hybrid predictions
// across client populations for all three servers, plus the per-method
// accuracy summary for established and new servers, which it also
// returns unformatted.
func (s *Suite) figure2() (*Table, accuracies, error) {
	t := &Table{
		ID:     "Figure 2",
		Title:  "Mean response time: measured vs predicted (typical workload)",
		Header: []string{"Server", "Clients", "Measured (ms)", "Historical (ms)", "LQN (ms)", "Hybrid (ms)", "Measured X (req/s)", "LQN X (req/s)"},
	}
	points, err := s.figure2Walk()
	if err != nil {
		return nil, nil, err
	}
	acc := accuracies{}
	for _, p := range points {
		n := float64(p.clients)
		histRT, lqRT, hyRT := p.hist.Predict(n), p.lqn.MeanResponseTime(), p.hybrid.Predict(n)
		acc.record("historical", p.group, histRT, p.meas.MeanRT)
		acc.record("lqn", p.group, lqRT, p.meas.MeanRT)
		acc.record("hybrid", p.group, hyRT, p.meas.MeanRT)
		acc.record("lqn-throughput", p.group, p.lqn.TotalThroughput(), p.meas.Throughput)
		t.addRow(label(p.arch.Name), itoa(p.clients), ms(p.meas.MeanRT), ms(histRT), ms(lqRT), ms(hyRT),
			f1(p.meas.Throughput), f1(p.lqn.TotalThroughput()))
	}
	for _, method := range []string{"historical", "lqn", "hybrid", "lqn-throughput"} {
		pair := acc.of(method)
		t.addNote("%s accuracy (established servers): %.1f%%", method, pair[0])
		t.addNote("%s accuracy (new servers): %.1f%%", method, pair[1])
	}
	t.addNote("paper: historical 89.1%%/83%% (est/new), LQN RT 68.8%%/73.4%%, LQN X 97.8%%/97.1%%, hybrid 67.1%%/74.9%%")
	return t, acc, nil
}

// figure3 regenerates the paper's figure 3: the predictive accuracy on
// the new server architecture as the number of clients x between the
// two historical data points grows. As in the paper, LQNS (here: the
// lqn package) generates both the calibration points for the
// established servers and the evaluation data for the new server, and
// x scales with machine speed so the % of the max-throughput load
// between the points is constant.
func (s *Suite) figure3() (*Table, error) {
	t := &Table{
		ID:     "Figure 3",
		Title:  "Accuracy vs clients between historical data points (LQN-generated data)",
		Header: []string{"x (AppServF clients)", "Lower-eq accuracy (%)", "Upper-eq accuracy (%)", "Lower @20ms conv (%)", "Upper @20ms conv (%)"},
	}
	demands, err := s.lqnDemands()
	if err != nil {
		return nil, err
	}
	gradient, err := s.gradient()
	if err != nil {
		return nil, err
	}

	// This figure is the harness's densest LQN grid (~170 solves over
	// three architectures), all on one model per architecture with only
	// the browse population changing: one sweep per architecture.
	// Warm starts stay confined to the tight default criterion: the
	// 20 ms runs stop wherever the iteration trajectory happens to
	// land (that trajectory-sensitivity is the noise this figure
	// studies), so they solve the sweep's model on a cold-started
	// solver of their own.
	type sweeper struct {
		*lqn.TradeSweep
		cold *lqn.Solver
	}
	sweepers := make(map[string]sweeper, 3)
	sweepAt := func(arch workload.ServerArch, n int, opt lqn.Options) (*lqn.Result, error) {
		sw, ok := sweepers[arch.Name]
		if !ok {
			ts, err := lqn.NewTradeSweep(arch, workload.CaseStudyDB(), demands, workload.TypicalWorkload(1), s.LQNOpt)
			if err != nil {
				return nil, err
			}
			sw = sweeper{TradeSweep: ts, cold: lqn.NewSolver()}
			sweepers[arch.Name] = sw
		}
		if opt == s.LQNOpt {
			return sw.Solve(workload.TypicalWorkload(n))
		}
		sw.Model.Classes[0].Population = n
		return sw.cold.Solve(sw.Model, opt)
	}

	// LQN-derived max throughputs anchor each server's N*.
	xMaxOf := func(arch workload.ServerArch) (float64, error) {
		res, err := sweepAt(arch, int(2.2*arch.Speed*workload.MaxThroughputF*workload.ThinkTimeMean), s.LQNOpt)
		if err != nil {
			return 0, err
		}
		return res.TotalThroughput(), nil
	}
	// Data points can be generated under a tight criterion or the
	// paper's 20 ms one; the latter reproduces the small-x noise the
	// paper warns about ("difficult to obtain results for values of x
	// below 30 ... due to the 20ms LQNS convergence criterion").
	lqnRTOpt := func(arch workload.ServerArch, n int, opt lqn.Options) (float64, error) {
		if n < 1 {
			n = 1
		}
		res, err := sweepAt(arch, n, opt)
		if err != nil {
			return 0, err
		}
		return res.MeanResponseTime(), nil
	}
	lqnRT := func(arch workload.ServerArch, n int) (float64, error) {
		return lqnRTOpt(arch, n, s.LQNOpt)
	}

	type serverAnchor struct {
		arch  workload.ServerArch
		nStar float64
		xMax  float64
	}
	var anchors []serverAnchor
	for _, arch := range []workload.ServerArch{workload.AppServF(), workload.AppServVF(), workload.AppServS()} {
		xm, err := xMaxOf(arch)
		if err != nil {
			return nil, err
		}
		anchors = append(anchors, serverAnchor{arch: arch, nStar: xm / gradient, xMax: xm})
	}
	newAnchor := anchors[2]
	fNStar := anchors[0].nStar

	// Evaluation data on the new server, from the layered model.
	evalLower := []float64{0.25, 0.40, 0.55}
	evalUpper := []float64{1.2, 1.4, 1.6}
	var lowerEval, upperEval []hist.DataPoint
	for _, f := range evalLower {
		rt, err := lqnRT(newAnchor.arch, int(f*newAnchor.nStar))
		if err != nil {
			return nil, err
		}
		lowerEval = append(lowerEval, hist.DataPoint{Clients: f * newAnchor.nStar, MeanRT: rt})
	}
	for _, f := range evalUpper {
		rt, err := lqnRT(newAnchor.arch, int(f*newAnchor.nStar))
		if err != nil {
			return nil, err
		}
		upperEval = append(upperEval, hist.DataPoint{Clients: f * newAnchor.nStar, MeanRT: rt})
	}

	// calibrateAt builds the new-server model from data points spaced
	// xFrac·N* apart, generated under the given solver options.
	calibrateAt := func(xFrac float64, opt lqn.Options) (lowerAcc, upperAcc float64, err error) {
		histories := []hist.ServerHistory{{Arch: newAnchor.arch, MaxThroughput: newAnchor.xMax}}
		for _, a := range anchors[:2] { // established: F and VF
			// Lower: one point fixed at the 66% anchor, the other
			// xFrac·N* below it. Upper: fixed at 110%, other above.
			loHi := hist.TransitionLow * a.nStar
			loLo := loHi - xFrac*a.nStar
			if loLo < 1 {
				loLo = 1
			}
			upLo := hist.TransitionHigh * a.nStar
			upHi := upLo + xFrac*a.nStar
			pts := make([]hist.DataPoint, 0, 4)
			for _, n := range []float64{loLo, loHi, upLo, upHi} {
				rt, err := lqnRTOpt(a.arch, int(n), opt)
				if err != nil {
					return 0, 0, err
				}
				pts = append(pts, hist.DataPoint{Clients: n, MeanRT: rt})
			}
			histories = append(histories, hist.ServerHistory{Arch: a.arch, MaxThroughput: a.xMax, Points: pts})
		}
		set, _, err := hist.CalibrateSet(gradient, histories)
		if err != nil {
			return 0, 0, err
		}
		newModel := set[newAnchor.arch.Name]
		lowerAcc, _, _ = hist.EvaluateEquationAccuracy(newModel, lowerEval)
		_, upperAcc, _ = hist.EvaluateEquationAccuracy(newModel, upperEval)
		return lowerAcc, upperAcc, nil
	}

	coarse := lqn.Options{Convergence: 0.020}
	for _, xFrac := range []float64{0.01, 0.02, 0.03, 0.06, 0.10, 0.15, 0.20, 0.28, 0.36, 0.45} {
		lowerAcc, upperAcc, err := calibrateAt(xFrac, s.LQNOpt)
		if err != nil {
			return nil, err
		}
		lowerC, upperC, err := calibrateAt(xFrac, coarse)
		if err != nil {
			// The paper's difficulty made literal: closely spaced
			// points under the coarse criterion can come back
			// non-monotone and fail calibration.
			t.addRow(f1(xFrac*fNStar), f1(lowerAcc), f1(upperAcc), label("unusable"), label("unusable"))
			continue
		}
		t.addRow(f1(xFrac*fNStar), f1(lowerAcc), f1(upperAcc), f1(lowerC), f1(upperC))
	}
	t.addNote("paper: lower-equation accuracy rises roughly linearly with x; upper-equation accuracy levels off; x below ~30 clients is unusable under a 20ms convergence criterion")
	return t, nil
}

// figure4 regenerates the paper's figure 4: heterogeneous-workload
// (buy-mix) mean response time predictions for the new server, built
// from relationship 3 with LQN-generated calibration data (the paper's
// AppServF points are 189 and 158 req/s at 0% and 25% buy).
func (s *Suite) figure4() (*Table, error) {
	t := &Table{
		ID:     "Figure 4",
		Title:  "Heterogeneous workload mean RT predictions for the new server (AppServS)",
		Header: []string{"Buy %", "Clients", "Measured (ms)", "Historical rel-3 (ms)"},
	}
	demands, err := s.lqnDemands()
	if err != nil {
		return nil, err
	}
	rel3, _, err := hybrid.BuildRelationship3(hybrid.Config{
		DB:      workload.CaseStudyDB(),
		Demands: demands,
		LQN:     s.LQNOpt,
	}, workload.AppServF(), []float64{0, 25})
	if err != nil {
		return nil, err
	}
	hms, rel2, err := s.histSet()
	if err != nil {
		return nil, err
	}
	base := hms[workload.AppServS().Name]
	buyPcts := []float64{0, 10, 25}
	fracs := []float64{0.3, 0.55, 1.25, 1.6}
	models := make([]*hist.ServerModel, len(buyPcts))
	for i, buyPct := range buyPcts {
		models[i] = base
		if buyPct > 0 {
			models[i], err = rel3.ModelAtBuyPct(rel2, base, buyPct)
			if err != nil {
				return nil, err
			}
		}
	}
	var cells []measureCell
	for i, buyPct := range buyPcts {
		for _, c := range cellsAt(workload.AppServS(), models[i].SaturationClients(), fracs) {
			c.buyFrac = buyPct / 100
			cells = append(cells, c)
		}
	}
	results, err := measureCells(s, cells)
	if err != nil {
		return nil, err
	}
	var preds, acts []float64
	for k, c := range cells {
		i := k / len(fracs)
		pred := models[i].Predict(float64(c.clients))
		preds = append(preds, pred)
		acts = append(acts, results[k].MeanRT)
		t.addRow(f1(buyPcts[i]), itoa(c.clients), ms(results[k].MeanRT), ms(pred))
	}
	t.addNote("accuracy across buy mixes: %.1f%%", stats.Accuracy(preds, acts))
	t.addNote("paper: good shape agreement; LQNS anchor points 189/158 req/s at 0%%/25%% buy on AppServF")
	return t, nil
}
